module Cluster = Lion_store.Cluster
module Placement = Lion_store.Placement
module Txn = Lion_workload.Txn

let create cl =
  let process txns =
    let nodes = Cluster.node_count cl in
    let node_busy = Array.make nodes 0.0 in
    let rt = Batch_util.rt_block cl in
    let verdicts =
      Array.map
        (fun txn ->
          Batch_util.touch cl txn;
          let home = Batch_util.home_node cl txn in
          let cross = Txn.is_cross_partition txn in
          (* Every participant executes its own sub-transaction. *)
          List.iter
            (fun part ->
              let owner = Placement.primary cl.Cluster.placement part in
              node_busy.(owner) <-
                node_busy.(owner) +. Batch_util.part_ops_work txn ~part)
            txn.Txn.parts;
          (* The home worker stalls on the remote-read exchange — the
             dominant cost of Calvin's distributed transactions (§VI-G
             measures it at over 90 % of execution time). *)
          if cross then node_busy.(home) <- node_busy.(home) +. (2.0 *. rt);
          Batch_util.charge_replication cl txn;
          Batch.verdict ~committed:true ~single_node:(not cross) ~remastered:false)
        txns
    in
    {
      Batch.verdicts;
      node_busy;
      serial_time = float_of_int (Array.length txns) *. Batch_util.lock_grant_cost;
      barrier_time = 0.0;
    }
  in
  Batch.create cl ~name:"Calvin" ~process
    ~stage_labels:("lock-schedule", "barrier") ()
