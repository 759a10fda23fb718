module Cluster = Lion_store.Cluster
module Config = Lion_store.Config
module Network = Lion_sim.Network
module Txn = Lion_workload.Txn

let super = 0

let create cl =
  let cfg = cl.Cluster.cfg in
  let process txns =
    let nodes = Cluster.node_count cl in
    let node_busy = Array.make nodes 0.0 in
    (* OCC conflicts among concurrently-executing transactions restart
       within the epoch: the loser pays a second execution. *)
    let window = 4 * Config.total_workers cfg in
    let ok = Batch.conflict_verdicts ~window txns in
    let any_cross = ref false in
    let verdicts =
      Array.mapi
        (fun i txn ->
          Batch_util.touch cl txn;
          let work = Batch_util.ops_work txn in
          let cross = Txn.is_cross_partition txn in
          let node = if cross then super else Batch_util.home_node cl txn in
          if cross then any_cross := true;
          let work = if ok.(i) then work else 2.0 *. work in
          node_busy.(node) <- node_busy.(node) +. work;
          (* Full replication: super-node writes fan out to every
             other node; partitioned writes to their secondaries. *)
          if cross then
            Network.charge cl.Cluster.network
              ~bytes:(Txn.write_count txn * Config.record_bytes * (nodes - 1))
          else Batch_util.charge_replication cl txn;
          { Batch.committed = true; single_node = true; remastered = cross })
        txns
    in
    {
      Batch.verdicts;
      node_busy;
      serial_time = 0.0;
      (* The phase switch remasters primaries to/from the super node
         once per epoch; it overlaps nothing. *)
      barrier_time = (if !any_cross then cfg.Config.remaster_delay else 0.0);
    }
  in
  Batch.create cl ~name:"Star" ~process
    ~stage_labels:("sequencing", "phase-switch-remaster") ()
