module Cluster = Lion_store.Cluster
module Config = Lion_store.Config
module Placement = Lion_store.Placement
module Network = Lion_sim.Network
module Heatgraph = Lion_analysis.Heatgraph
module Clump = Lion_analysis.Clump
module Schism = Lion_analysis.Schism
module Kvstore = Lion_store.Kvstore
module Txn = Lion_workload.Txn

(* Serialized pipeline stall per ownership move: the deterministic
   order cannot proceed past a transaction whose data is in flight. *)
let per_move_stall = 300.0

(* Hermes moves only the records a group needs, roughly a tenth of a
   partition per move. *)
let move_bytes = Config.partition_bytes / 10

let create cl =
  let parts = Cluster.partition_count cl in
  (* Hermes' own mastership view, seeded from the initial placement. *)
  let owner =
    Array.init parts (fun p -> Placement.primary cl.Cluster.placement p)
  in
  let process txns =
    let nodes = Cluster.node_count cl in
    let node_busy = Array.make nodes 0.0 in
    let rt = Batch_util.rt_block cl in
    (* Prescient planning over the whole batch. *)
    let graph = Heatgraph.create ~partitions:parts in
    Array.iter (fun txn -> Heatgraph.add_txn graph ~parts:txn.Txn.parts) txns;
    let alpha = 2.0 *. Heatgraph.mean_edge_weight graph in
    let total_weight = ref 0.0 and hottest = ref 0.0 in
    for p = 0 to parts - 1 do
      let w = Heatgraph.vertex_weight graph p in
      total_weight := !total_weight +. w;
      if w > !hottest then hottest := w
    done;
    let max_weight =
      Stdlib.max (0.35 *. !total_weight /. float_of_int nodes) (2.2 *. !hottest)
    in
    let clumps =
      Clump.generate ~max_weight graph ~placement:cl.Cluster.placement ~alpha
        ~cross_boost:4.0
    in
    let assignments = Schism.assign clumps ~nodes in
    let moves = ref 0 in
    List.iter
      (fun ((c : Clump.t), node) ->
        List.iter
          (fun part ->
            if owner.(part) <> node then (
              owner.(part) <- node;
              incr moves;
              Network.charge cl.Cluster.network ~bytes:move_bytes))
          c.pids)
      assignments;
    let verdicts =
      Array.map
        (fun txn ->
          Batch_util.touch cl txn;
          (* Home = owner of most partitions under the new mastership. *)
          let counts = Array.make nodes 0 in
          List.iter (fun p -> counts.(owner.(p)) <- counts.(owner.(p)) + 1) txn.Txn.parts;
          let home = ref 0 in
          Array.iteri (fun n c -> if c > counts.(!home) then home := n) counts;
          let single = List.for_all (fun p -> owner.(p) = !home) txn.Txn.parts in
          node_busy.(!home) <- node_busy.(!home) +. Batch_util.ops_work txn;
          if not single then node_busy.(!home) <- node_busy.(!home) +. rt;
          Batch_util.charge_replication cl txn;
          { Batch.committed = true; single_node = single; remastered = false })
        txns
    in
    {
      Batch.verdicts;
      node_busy;
      serial_time = float_of_int (Array.length txns) *. Batch_util.lock_grant_cost;
      barrier_time = float_of_int !moves *. per_move_stall;
    }
  in
  Batch.create cl ~name:"Hermes" ~process
    ~stage_labels:("sequencing", "ownership-invalidation") ()
