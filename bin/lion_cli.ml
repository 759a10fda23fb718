(* The lion command-line interface: one executable, one subcommand per
   tool. [run], [compare] and [list] live here; every other subcommand
   is a [<name>_cmd.ml] beside this file, and the flags several of them
   share are defined once in [Terms]. *)

open Cmdliner
module Config = Lion_store.Config
module Runner = Lion_harness.Runner
module Workloads = Lion_harness.Workloads
module Table = Lion_kernel.Table
module Protocols = Lion_harness.Protocols

(* A fresh generator for [workload]; called once per protocol run so
   every protocol sees the same transaction stream. *)
let workload_gen workload ~seed ~skew ~cross cfg =
  match workload with
  | "tpcc" -> Workloads.tpcc ~seed:(seed + 1) ~skew ~cross cfg
  | "dynamic" -> Workloads.dynamic_position ~seed:(seed + 1) ~period:8.0 cfg
  | _ -> Workloads.ycsb ~seed:(seed + 1) ~skew ~cross cfg

let run_protocol (p : Protocols.entry) workload ~nodes ~skew ~cross ~warmup ~duration
    ~remaster_delay ~seed =
  let cfg = Terms.with_remaster_delay remaster_delay (Config.with_nodes Config.default nodes) in
  Runner.run ~seed ~batch:p.batch ~cfg ~make:p.make
    ~gen:(workload_gen workload ~seed ~skew ~cross cfg)
    { Runner.quick with Runner.warmup; duration }

(* The options [run] and [compare] share, in their functions' order. *)
let with_run_options ~duration f =
  let open Arg in
  let workloads = List.map (fun w -> (w, w)) [ "ycsb"; "tpcc"; "dynamic" ] in
  let workload =
    value & opt (enum workloads) "ycsb" & info [ "w"; "workload" ] ~doc:"ycsb | tpcc | dynamic."
  in
  let nodes = value & opt int 4 & info [ "n"; "nodes" ] ~doc:"Executor node count." in
  let duration =
    value & opt float duration & info [ "duration" ] ~doc:"Measured simulated seconds."
  in
  let warmup = value & opt float 4.0 & info [ "warmup" ] ~doc:"Warm-up seconds." in
  let csv = value & opt (some string) None & info [ "csv" ] ~doc:"Write a summary CSV." in
  Term.(
    f $ workload $ nodes $ Terms.skew 0.0 $ Terms.cross 0.5 $ duration $ warmup
    $ Terms.remaster_delay (Some 300.0)
    $ Terms.seed () $ csv)

let write_summary csv results =
  Option.iter
    (fun path ->
      Lion_harness.Export.result_csv ~path results;
      Printf.printf "summary written to %s\n" path)
    csv;
  0

(* --- run --- *)

let do_run (protocol : Protocols.entry) workload nodes skew cross duration warmup
    remaster_delay seed csv =
  let r =
    run_protocol protocol workload ~nodes ~skew ~cross ~warmup ~duration ~remaster_delay ~seed
  in
  Table.by_metric
    ~title:
      (Printf.sprintf "%s on %s (nodes=%d skew=%.2f cross=%.2f)" protocol.id workload nodes skew
         cross)
    "metric"
    [
      Runner.fixed ~decimals:0 "throughput (txn/s)" (fun r -> r.throughput);
      Runner.count "commits" (fun r -> r.commits);
      Runner.aborts;
      Runner.ms ~decimals:2 "p50 latency (ms)" (fun r -> r.p50);
      Runner.ms ~decimals:2 "p95 latency (ms)" (fun r -> r.p95);
      Runner.single_node;
      Runner.fixed ~decimals:0 "bytes/txn" (fun r -> r.bytes_per_txn);
      Runner.count "remasters" (fun r -> r.remasters);
      Runner.count "replica adds" (fun r -> r.replica_adds);
    ]
    [ ("value", r) ];
  write_summary csv [ (protocol.id, r) ]

let run_cmd =
  let protocol =
    Arg.(
      value
      & opt Terms.protocol_conv (Protocols.get "lion")
      & info [ "p"; "protocol" ] ~doc:"Protocol to run.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one protocol on one workload")
    (with_run_options ~duration:6.0 Term.(const do_run $ protocol))

(* --- compare --- *)

let do_compare protocols workload nodes skew cross duration warmup remaster_delay seed csv =
  let protocols = match protocols with [] -> Protocols.all | ps -> ps in
  let results =
    Lion_harness.Pool.map
      (fun (p : Protocols.entry) ->
        ( p.id,
          run_protocol p workload ~nodes ~skew ~cross ~warmup ~duration ~remaster_delay ~seed
        ))
      protocols
  in
  Table.by_row
    ~title:(Printf.sprintf "%s (nodes=%d skew=%.2f cross=%.2f)" workload nodes skew cross)
    "protocol"
    [
      Runner.k_txn ();
      Runner.ms ~decimals:2 "p50 (ms)" (fun r -> r.p50);
      Runner.ms ~decimals:2 "p95 (ms)" (fun r -> r.p95);
      Runner.single_node;
      Runner.aborts;
    ]
    results;
  write_summary csv results

let compare_cmd =
  let names =
    Arg.(
      value
      & pos_all Terms.protocol_conv []
      & info [] ~docv:"PROTOCOL" ~doc:"Protocols (default: all).")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run several protocols on one workload, side by side")
    (with_run_options ~duration:5.0 Term.(const do_compare $ names))

(* --- list --- *)

let do_list () =
  print_endline "protocols:";
  List.iter
    (fun (p : Protocols.entry) ->
      Printf.printf "  %-10s %s\n" p.id (if p.batch then "(batch)" else "(standard)"))
    Protocols.all;
  print_endline "experiments:";
  List.iter
    (fun (id, desc, _) -> Printf.printf "  %-8s %s\n" id desc)
    Lion_harness.Experiments.registry;
  0

let list_cmd = Cmd.v (Cmd.info "list" ~doc:"List protocols and experiments") Term.(const do_list $ const ())

(* Sweep cells run on several domains; one lock around the reporter
   keeps each log line whole. *)
let locked_reporter (r : Logs.reporter) =
  let lock = Mutex.create () in
  {
    Logs.report =
      (fun src level ~over k msgf ->
        Mutex.protect lock (fun () -> r.report src level ~over k msgf));
  }

let setup_logging () =
  (* LION_LOG=debug|info|warning enables the library's structured logs
     (lion.planner, lion.cluster). *)
  match Sys.getenv_opt "LION_LOG" with
  | None -> ()
  | Some level ->
      Logs.set_reporter (locked_reporter (Logs_fmt.reporter ()));
      Logs.set_level
        (match String.lowercase_ascii level with
        | "debug" -> Some Logs.Debug
        | "info" -> Some Logs.Info
        | _ -> Some Logs.Warning)

let () =
  setup_logging ();
  let doc = "Lion: adaptive replica provision on a simulated cluster" in
  let debug =
    Cmd.group
      (Cmd.info "debug" ~doc:"Developer views of one run")
      [ Debug_run_cmd.cmd; Debug_planner_cmd.cmd; Debug_chaos_cmd.cmd ]
  in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "lion" ~doc)
          [
            run_cmd; compare_cmd; Experiment_cmd.cmd; list_cmd; Audit_cmd.cmd; Fuzz_cmd.cmd;
            Trace_cmd.cmd; Overload_cmd.cmd; Geo_cmd.cmd; Elastic_cmd.cmd; Perf_cmd.cmd; debug;
          ]))
