module Cluster = Lion_store.Cluster
module Kvstore = Lion_store.Kvstore
module Placement = Lion_store.Placement
module Txn = Lion_workload.Txn

(* Rows per granule lock. *)
let granule_size = 16

let create cl =
  let process txns =
    let nodes = Cluster.node_count cl in
    let node_busy = Array.make nodes 0.0 in
    let homes = Array.map (Batch_util.home_node cl) txns in
    (* Same-partition conflicts serialize on the partition's single
       executor thread and never abort; only cross-partition
       transactions — whose granule locks on REMOTE partitions live
       until the epoch ends — abort on conflict. The footprint is
       restricted to their remote-partition keys for exactly that
       reason. *)
    let footprint i =
      if Txn.is_cross_partition txns.(i) then
        let home = homes.(i) in
        fun k -> Placement.primary cl.Cluster.placement (Kvstore.part k) <> home
      else fun _ -> false
    in
    let granule k =
      (Kvstore.key ~part:(Kvstore.part k) ~slot:(Kvstore.slot k / granule_size) :> int)
    in
    let ok = Batch.conflict_verdicts ~footprint ~granule txns in
    let verdicts =
      Array.mapi
        (fun i txn ->
          Batch_util.touch cl txn;
          let home = homes.(i) in
          let cross = Txn.is_cross_partition txn in
          (* Asynchronous commit/replication: cross transactions cost
             message handling, not a blocking round trip. *)
          node_busy.(home) <-
            node_busy.(home) +. Batch_util.ops_work txn
            +. (if cross then 2.0 *. Lion_store.Config.msg_handle_cost else 0.0);
          if ok.(i) then (
            Batch_util.charge_replication cl txn;
            { Batch.committed = true; single_node = not cross; remastered = false })
          else { Batch.committed = false; single_node = not cross; remastered = false })
        txns
    in
    {
      Batch.verdicts;
      node_busy;
      serial_time = 0.0;
      barrier_time = 0.0;
    }
  in
  Batch.create cl ~name:"Lotus" ~process
    ~stage_labels:("granule-lock", "barrier") ()
