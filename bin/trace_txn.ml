(* Single-run trace inspector: run one protocol over a YCSB mix with
   tracing on, print the slow-transaction critical-path report, and
   write a Chrome/Perfetto trace file.

     dune exec bin/trace_txn.exe -- --proto lion --cross 0.5 --skew 0.8

   The cluster uses the paper's §VI-C1 stress setting (3 ms remaster)
   so remaster transfers and 2PC rounds are visible at trace scale. *)

module Config = Lion_store.Config
module Runner = Lion_harness.Runner
module Workloads = Lion_harness.Workloads
module Trace = Lion_trace.Trace

module Protocols = Lion_harness.Protocols

let parse_policy s =
  match String.split_on_char ':' s with
  | [ "all" ] -> Trace.All
  | [ "abort" ] -> Trace.On_abort
  | [ "every"; n ] -> Trace.Every (int_of_string n)
  | [ "slowest"; k ] -> Trace.Slowest (int_of_string k)
  | _ ->
      Printf.eprintf
        "bad --policy %s (want all | abort | every:N | slowest:K)\n" s;
      exit 1

let usage () =
  Printf.eprintf
    "usage: trace_txn [--proto NAME] [--cross F] [--skew F] [--seed N]\n\
    \                 [--seconds F] [--top N] [--policy P] [--out PATH]\n\
     protocols: %s\n\
     policy: all | abort | every:N | slowest:K (default slowest:10)\n"
    (String.concat ", " Protocols.ids);
  exit 1

let () =
  let proto = ref "lion" in
  let cross = ref 0.5 in
  let skew = ref 0.0 in
  let seed = ref 1 in
  let seconds = ref 3.0 in
  let top = ref 5 in
  let policy = ref (Trace.Slowest 10) in
  let out = ref "" in
  let rec parse = function
    | [] -> ()
    | "--proto" :: v :: rest ->
        proto := v;
        parse rest
    | "--cross" :: v :: rest ->
        cross := float_of_string v;
        parse rest
    | "--skew" :: v :: rest ->
        skew := float_of_string v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--top" :: v :: rest ->
        top := int_of_string v;
        parse rest
    | "--policy" :: v :: rest ->
        policy := parse_policy v;
        parse rest
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let p = Protocols.resolve !proto in
  let cfg =
    {
      Config.default with
      Config.remaster_delay = 3000.0;
      remaster_cooldown = 30_000.0;
    }
  in
  let tracer = Trace.create ~policy:!policy () in
  let rc = { Runner.quick with warmup = 1.0; duration = !seconds } in
  let r =
    Runner.run ~seed:!seed ~batch:p.batch ~tracer ~cfg ~make:p.make
      ~gen:(Workloads.ycsb ~seed:!seed ~skew:!skew ~cross:!cross cfg)
      rc
  in
  Printf.printf
    "%s cross=%.2f skew=%.2f seed=%d: %.0f txn/s, p95 %.0f us, %d aborts\n"
    p.id !cross !skew !seed r.Runner.throughput r.Runner.p95 r.Runner.aborts;
  Lion_trace.Report.print ~top:!top ~label:p.id tracer;
  if !out <> "" then (
    Lion_trace.Chrome.write ~path:!out ~label:p.id
      ~instants:(Trace.instants tracer) (Trace.retained tracer);
    Printf.printf "wrote %s (load in ui.perfetto.dev or chrome://tracing)\n"
      !out)
