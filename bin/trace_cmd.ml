(* Single-run trace inspector: run one protocol over a YCSB mix with
   tracing on, print the slow-transaction critical-path report, and
   write a Chrome/Perfetto trace file.

     lion trace --proto lion --cross 0.5 --skew 0.8

   The cluster uses the paper's §VI-C1 stress setting (3 ms remaster)
   so remaster transfers and 2PC rounds are visible at trace scale. *)

open Cmdliner
module Config = Lion_store.Config
module Runner = Lion_harness.Runner
module Workloads = Lion_harness.Workloads
module Trace = Lion_trace.Trace

module Protocols = Lion_harness.Protocols

let policy_conv =
  let parse s =
    let n k f = Option.map f (int_of_string_opt k) in
    Option.to_result
      ~none:(`Msg (Printf.sprintf "bad policy %s (want all | abort | every:N | slowest:K)" s))
      (match String.split_on_char ':' s with
      | [ "all" ] -> Some Trace.All
      | [ "abort" ] -> Some Trace.On_abort
      | [ "every"; k ] -> n k (fun k -> Trace.Every k)
      | [ "slowest"; k ] -> n k (fun k -> Trace.Slowest k)
      | _ -> None)
  in
  let print ppf = function
    | Trace.All -> Format.pp_print_string ppf "all"
    | Trace.On_abort -> Format.pp_print_string ppf "abort"
    | Trace.Every n -> Format.fprintf ppf "every:%d" n
    | Trace.Slowest k -> Format.fprintf ppf "slowest:%d" k
  in
  Arg.conv (parse, print)

let run proto cross skew seed seconds top policy out =
  let p = Protocols.get proto in
  let cfg =
    {
      Config.default with
      Config.remaster_delay = 3000.0;
      remaster_cooldown = 30_000.0;
    }
  in
  let tracer = Trace.create ~policy () in
  let rc = { Runner.quick with warmup = 1.0; duration = seconds } in
  let r =
    Runner.run ~seed ~batch:p.batch ~tracer ~cfg ~make:p.make
      ~gen:(Workloads.ycsb ~seed ~skew ~cross cfg)
      rc
  in
  Printf.printf
    "%s cross=%.2f skew=%.2f seed=%d: %.0f txn/s, p95 %.0f us, %d aborts\n"
    p.id cross skew seed r.Runner.throughput r.Runner.p95 r.Runner.aborts;
  Lion_trace.Report.print ~top ~label:p.id tracer;
  if out <> "" then (
    Lion_trace.Chrome.write ~path:out ~label:p.id
      ~instants:(Trace.instants tracer) (Trace.retained tracer);
    Printf.printf "wrote %s (load in ui.perfetto.dev or chrome://tracing)\n"
      out);
  0

let cmd =
  let top =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc:"Slow transactions to report.")
  in
  let policy =
    Arg.(
      value
      & opt policy_conv (Trace.Slowest 10)
      & info [ "policy" ] ~docv:"P"
          ~doc:"Which transactions to retain: all | abort | every:N | slowest:K.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Trace one protocol run and report its slowest transactions")
    Term.(
      const run $ Terms.proto () $ Terms.cross 0.5 $ Terms.skew 0.0 $ Terms.seed ()
      $ Terms.seconds 3.0 $ top $ policy
      $ Terms.out ~docv:"PATH" ~doc:"Write a Chrome/Perfetto trace file." "")
