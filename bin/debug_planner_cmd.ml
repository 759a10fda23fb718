(* lion debug planner: feed one synthetic YCSB batch through the analysis
   pipeline (graph -> clumps -> Algorithm 1) outside the simulator and
   dump every intermediate artefact. The clump step is the planner's
   own ([Planner.clump]); the cost model and Algorithm 1 run with the
   planner's constants. *)

open Cmdliner
module Config = Lion_store.Config
module Cluster = Lion_store.Cluster
module Placement = Lion_store.Placement
module Heatgraph = Lion_analysis.Heatgraph
module Clump = Lion_analysis.Clump
module Planner = Lion_core.Planner
module Costmodel = Lion_analysis.Costmodel
module Rearrange = Lion_analysis.Rearrange
module Ycsb = Lion_workload.Ycsb
module Txn = Lion_workload.Txn

let run () =
  let cfg = Config.default in
  let parts = Config.total_partitions cfg in
  let cl = Cluster.create ~seed:1 cfg in
  let params =
    { (Ycsb.default_params ~partitions:parts ~nodes:cfg.Config.nodes)
      with Ycsb.skew_factor = 0.8; cross_ratio = 0.5 } in
  let gen = Ycsb.create ~seed:7 params in
  let graph = Heatgraph.create ~partitions:parts in
  for _ = 1 to 20000 do
    let txn = Ycsb.next gen in
    Heatgraph.add_txn graph ~parts:txn.Txn.parts
  done;
  let { Planner.alpha; max_weight; clumps } = Planner.clump cl graph in
  Printf.printf "alpha=%.1f max_clump_weight=%.0f\n" alpha max_weight;
  Printf.printf "clumps=%d\n" (List.length clumps);
  List.iteri (fun i (c:Clump.t) ->
    if i < 12 then Printf.printf "  clump %d: w=%.0f size=%d pids=[%s]\n" i c.w (List.length c.pids)
      (String.concat ";" (List.map string_of_int c.pids))) clumps;
  let cost = Costmodel.make ~freq:(Cluster.normalized_freq cl) () in
  let r = Rearrange.rearrange cost cl.Cluster.placement clumps () in
  Printf.printf "balance=[%s] moves=%d balanced=%b\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") r.Rearrange.balance)))
    r.Rearrange.fine_tune_moves r.Rearrange.balanced;
  let dest_count = Array.make (Cluster.node_count cl) 0 in
  List.iter (fun ((c:Clump.t), n) -> dest_count.(n) <- dest_count.(n) + List.length c.pids) r.Rearrange.assignments;
  Printf.printf "parts per node: %s\n" (String.concat " " (Array.to_list (Array.map string_of_int dest_count)));
  0

let cmd =
  Cmd.v
    (Cmd.info "planner" ~doc:"Dump every stage of the planner on one synthetic YCSB batch")
    Term.(const run $ const ())
