module Cluster = Lion_store.Cluster
module Config = Lion_store.Config
module Placement = Lion_store.Placement
module Network = Lion_sim.Network
module Kvstore = Lion_store.Kvstore
module Txn = Lion_workload.Txn

let ops_work (txn : Txn.t) =
  Config.txn_setup_cost
  +. (float_of_int (Array.length txn.Txn.ops) *. Config.local_op_cost)

let part_ops_work (txn : Txn.t) ~part =
  let n =
    Array.fold_left
      (fun n op -> if Kvstore.part (Txn.key_of op) = part then n + 1 else n)
      0 txn.Txn.ops
  in
  float_of_int n *. Config.local_op_cost

let rt_block cl =
  Network.roundtrip cl.Cluster.network ~bytes:Config.op_msg_bytes
  +. Config.msg_handle_cost

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

(* One replication record per touched partition. The epoch barrier
   already synchronised every replica before the batch committed
   (deterministic engines), so the analytic charge marks every live
   holder as having applied it, and returns the partition's secondary
   count. *)
let replicate_part cl p =
  let placement = cl.Cluster.placement and repl = cl.Cluster.replication in
  Lion_store.Replication.append repl ~part:p;
  let len = Lion_store.Replication.appends repl ~part:p in
  let secondaries = ref 0 in
  for n = 0 to Placement.nodes placement - 1 do
    let secondary = Placement.has_secondary placement ~part:p ~node:n in
    if secondary then incr secondaries;
    if (secondary || Placement.has_primary placement ~part:p ~node:n) && Cluster.alive cl n then
      Lion_store.Replication.set_applied repl ~part:p ~node:n ~upto:len
  done;
  !secondaries

let rec replicate_parts cl secondaries = function
  | [] -> secondaries
  | p :: rest -> replicate_parts cl (secondaries + replicate_part cl p) rest

let charge_replication cl (txn : Txn.t) =
  let bytes = replicate_parts cl 0 txn.Txn.parts * Config.record_bytes in
  if bytes > 0 then Network.charge cl.Cluster.network ~bytes

let touch cl (txn : Txn.t) =
  List.iter (fun p -> Cluster.touch_partition cl p) txn.Txn.parts

let lock_grant_cost = 10.0
