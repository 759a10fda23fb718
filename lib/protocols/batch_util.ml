module Cluster = Lion_store.Cluster
module Config = Lion_store.Config
module Placement = Lion_store.Placement
module Network = Lion_sim.Network
module Kvstore = Lion_store.Kvstore
module Txn = Lion_workload.Txn

let ops_work cfg (txn : Txn.t) =
  cfg.Config.txn_setup_cost
  +. (float_of_int (Array.length txn.Txn.ops) *. cfg.Config.local_op_cost)

let part_ops_work cfg (txn : Txn.t) ~part =
  let n =
    Array.fold_left
      (fun n op -> if Kvstore.part (Txn.key_of op) = part then n + 1 else n)
      0 txn.Txn.ops
  in
  float_of_int n *. cfg.Config.local_op_cost

let rt_block cl =
  Network.roundtrip cl.Cluster.network ~bytes:cl.Cluster.cfg.Config.op_msg_bytes
  +. cl.Cluster.cfg.Config.msg_handle_cost

let home_node cl (txn : Txn.t) =
  let placement = cl.Cluster.placement in
  let best = ref (0, -1) in
  for node = Placement.nodes placement - 1 downto 0 do
    if Cluster.alive cl node then (
      let count = Placement.count_primaries_at placement txn.Txn.parts ~node in
      let _, best_count = !best in
      if count >= best_count then best := (node, count))
  done;
  fst !best

let charge_replication cl (txn : Txn.t) =
  let cfg = cl.Cluster.cfg in
  List.iter
    (fun p ->
      let repl = cl.Cluster.replication in
      Lion_store.Replication.append repl ~part:p;
      (* The epoch barrier already synchronised every replica before
         the batch committed (deterministic engines), so the analytic
         charge marks all live holders as having applied the record. *)
      let len = Lion_store.Replication.appends repl ~part:p in
      List.iter
        (fun n ->
          if Cluster.alive cl n then
            Lion_store.Replication.set_applied repl ~part:p ~node:n ~upto:len)
        (Placement.primary cl.Cluster.placement p
        :: Placement.secondaries cl.Cluster.placement p))
    txn.Txn.parts;
  let bytes =
    List.fold_left
      (fun acc part ->
        acc
        + List.length (Placement.secondaries cl.Cluster.placement part)
          * cfg.Config.record_bytes)
      0 txn.Txn.parts
  in
  if bytes > 0 then Network.charge cl.Cluster.network ~bytes

let touch cl (txn : Txn.t) =
  List.iter (fun p -> Cluster.touch_partition cl p) txn.Txn.parts

let lock_grant_cost = 10.0
