(* lion debug run: run one protocol for N simulated seconds, printing
   per-second commits, remaster/replica-add activity, aborts and
   per-node worker load — the fastest way to watch a protocol converge.
   It is one closed-loop [Runner.run] without warmup; the printer is an
   event on [Runner.every], like the protocol tick, and prints after it.

   [variant] is a protocol id from Lion_harness.Protocols ([lion] is
   standard-mode Lion) or one of the Table II ablations lion-s, lion-r,
   lion-rw, lion-rb. Full batch Lion ([Ablation.V_full]: Batch_mode,
   default planner, seed 31) is exactly the registry's [lion-batch]. *)

open Cmdliner
module Config = Lion_store.Config
module Cluster = Lion_store.Cluster
module Engine = Lion_sim.Engine
module Server = Lion_sim.Server
module Metrics = Lion_sim.Metrics
module Ablation = Lion_core.Ablation
module Protocols = Lion_harness.Protocols
module Runner = Lion_harness.Runner
module Workloads = Lion_harness.Workloads

let ablations =
  [ ("lion-s", Ablation.V_s); ("lion-r", Ablation.V_r); ("lion-rw", Ablation.V_rw);
    ("lion-rb", Ablation.V_rb) ]

(* One line per simulated second: each column is the change since the
   last line, between two snapshots of the counters and two readings of
   each worker's busy time. *)
let printer cl =
  let m = cl.Cluster.metrics and workers = cl.Cluster.workers in
  let sec = ref 0 and last = ref (Metrics.snapshot m) in
  let last_busy = ref (Array.map Server.busy_time workers) in
  fun () ->
    incr sec;
    let now = Metrics.snapshot m and busy = Array.map Server.busy_time workers in
    let d c = Metrics.get now c - Metrics.get !last c in
    let commits = d Commits in
    let loads = Array.map2 (fun b a -> (b -. a) /. 1e6) busy !last_busy in
    Printf.printf "t=%ds commits/s=%d remasters=%d adds=%d aborts=%d single=%.2f loads=[%s]\n%!"
      !sec commits
      (Metrics.completed_remasters now - Metrics.completed_remasters !last)
      (d Replica_adds) (d Aborts)
      (float_of_int (d Single_node_commits) /. float_of_int (max 1 commits))
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") loads)));
    last := now;
    last_busy := busy

let run variant skew cross secs remaster_delay =
  let batch, make =
    match List.assoc_opt variant ablations with
    | Some v -> (Ablation.is_batch v, Ablation.create v)
    | None ->
        let p = Protocols.get variant in
        (p.batch, fun cl -> p.make cl)
  in
  let cfg = Terms.with_remaster_delay remaster_delay Config.default in
  let second = Engine.seconds 1.0 in
  (* The printer and the protocol tick both fall on t = k s, and the
     printer's event is queued first; rescheduling it at zero delay runs
     it after the tick, so each line reads the counters as the tick due
     at the same instant left them. *)
  let setup cl =
    let engine = cl.Cluster.engine and print = printer cl in
    Runner.every engine ~first:second ~period:second ~until:infinity (fun () ->
        Engine.schedule engine ~delay:0.0 print)
  in
  let t_wall = Unix.gettimeofday () in
  ignore
    (Runner.run ~batch ~setup ~cfg ~make ~gen:(Workloads.ycsb ~skew ~cross cfg)
       { Runner.quick with warmup = 0.0; duration = float_of_int secs });
  Printf.printf "wall=%.1fs\n" (Unix.gettimeofday () -. t_wall);
  0

let cmd =
  let open Arg in
  let variant =
    value
    & pos 0 (Terms.protocol_id ~also:(List.map fst ablations)) "lion-rw"
    & info [] ~docv:"VARIANT"
        ~doc:"Protocol id or Table II ablation (lion-s, lion-r, lion-rw, lion-rb)."
  in
  let skew = value & pos 1 float 0.8 & info [] ~docv:"SKEW" ~doc:"Skew factor (0..1)." in
  let cross = value & pos 2 float 0.5 & info [] ~docv:"CROSS" ~doc:"Cross-partition ratio." in
  let secs = value & pos 3 int 8 & info [] ~docv:"SECS" ~doc:"Simulated seconds." in
  Cmd.v
    (Cmd.info "run" ~doc:"Print one protocol's per-second commits, remasters and load")
    Term.(const run $ variant $ skew $ cross $ secs $ Terms.remaster_delay None)
