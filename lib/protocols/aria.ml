module Cluster = Lion_store.Cluster
module Txn = Lion_workload.Txn

let create cl =
  let cfg = cl.Cluster.cfg in
  let process txns =
    let nodes = Cluster.node_count cl in
    let node_busy = Array.make nodes 0.0 in
    let rt = Batch_util.rt_block cl in
    (* Aria's reordering mechanism confines conflicts to transactions
       whose executions actually overlap; losers re-enter next epoch. *)
    let window = 4 * Lion_store.Config.total_workers cfg in
    let ok = Batch.conflict_verdicts ~include_raw:true ~window txns in
    let verdicts =
      Array.mapi
        (fun i txn ->
          Batch_util.touch cl txn;
          let home = Batch_util.home_node cl txn in
          let cross = Txn.is_cross_partition txn in
          (* Execution happens before reservation checking, so aborted
             transactions consume their work too. *)
          node_busy.(home) <-
            node_busy.(home) +. Batch_util.ops_work txn
            +. (if cross then rt else 0.0);
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
  Batch.create cl ~name:"Aria" ~process
    ~stage_labels:("reserve", "fallback-barrier") ()
