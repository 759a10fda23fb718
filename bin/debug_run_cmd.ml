(* lion debug run: run one protocol for N simulated seconds, printing
   per-second commits, remaster/replica-add activity, aborts and
   per-node worker load — the fastest way to watch a protocol converge.

   [variant] is a protocol id from Lion_harness.Protocols ([lion] is
   standard-mode Lion) or one of the Table II ablations lion-s, lion-r,
   lion-rw, lion-rb. Full batch Lion ([Ablation.V_full]: Batch_mode,
   default planner, seed 31) is exactly the registry's [lion-batch]. *)

open Cmdliner
module Config = Lion_store.Config
module Cluster = Lion_store.Cluster
module Placement = Lion_store.Placement
module Engine = Lion_sim.Engine
module Server = Lion_sim.Server
module Metrics = Lion_sim.Metrics
module Ycsb = Lion_workload.Ycsb
module Proto = Lion_protocols.Proto
module Ablation = Lion_core.Ablation
module Protocols = Lion_harness.Protocols

let ablations =
  [ ("lion-s", Ablation.V_s); ("lion-r", Ablation.V_r); ("lion-rw", Ablation.V_rw);
    ("lion-rb", Ablation.V_rb) ]

let run variant skew cross secs remaster_delay =
  let is_batch, make =
    match List.assoc_opt variant ablations with
    | Some v -> (Ablation.is_batch v, Ablation.create v)
    | None ->
        let p = Protocols.get variant in
        (p.batch, fun cl -> p.make cl)
  in
  let cfg = Terms.with_remaster_delay remaster_delay Config.default in
  let params =
    { (Ycsb.default_params ~partitions:(Config.total_partitions cfg) ~nodes:cfg.Config.nodes)
      with Ycsb.skew_factor = skew; cross_ratio = cross } in
  let gen = Ycsb.create ~seed:7 params in
  let cl = Cluster.create ~seed:1 cfg in
  let proto = make cl in
  let clients = if is_batch then cfg.Config.batch_size else 64 in
  let engine = cl.Cluster.engine in
  let rec client_loop () =
    let txn = Ycsb.next gen in
    proto.Proto.submit txn ~on_done:(fun () -> Engine.schedule engine ~delay:0.0 client_loop)
  in
  for _ = 1 to clients do client_loop () done;
  let last_commits = ref 0 and last_rem = ref 0 and last_adds = ref 0 and last_aborts = ref 0 in
  let t_wall = Unix.gettimeofday () in
  for sec = 1 to secs do
    Engine.run_until engine (Engine.seconds (float_of_int sec));
    proto.Proto.tick ();
    let c = Metrics.commits cl.Cluster.metrics in
    let r = cl.Cluster.remaster_count and a = cl.Cluster.replica_add_count in
    let ab = Metrics.aborts cl.Cluster.metrics in
    let loads = Array.map (fun s -> Server.busy_time s /. 1e6) cl.Cluster.workers in
    Printf.printf "t=%ds commits/s=%d remasters=%d adds=%d aborts=%d single=%.2f loads=[%s]\n%!"
      sec (c - !last_commits) (r - !last_rem) (a - !last_adds) (ab - !last_aborts)
      (float_of_int (Metrics.single_node_commits cl.Cluster.metrics) /. float_of_int (max 1 c))
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") loads)));
    last_commits := c; last_rem := r; last_adds := a; last_aborts := ab;
    Array.iter Server.reset_counters cl.Cluster.workers
  done;
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
