module Cluster = Lion_store.Cluster
module Config = Lion_store.Config
module Placement = Lion_store.Placement
module Network = Lion_sim.Network
module Metrics = Lion_sim.Metrics
module Batch = Lion_protocols.Batch
module Batch_util = Lion_protocols.Batch_util
module Txn = Lion_workload.Txn


let create_with_planner ?name ?(seed = 31) ?(config = Planner.default_config) cl =
  let planner = Planner.create ~seed config cl in
  let router = Router.create cl (Planner.cost_model planner) in
  let cfg = cl.Cluster.cfg in
  let name =
    match name with
    | Some n -> n
    | None -> if config.Planner.predict then "Lion" else "Lion(RB)"
  in
  let process txns =
    let placement = cl.Cluster.placement in
    let nodes = Cluster.node_count cl in
    let node_busy = Array.make nodes 0.0 in
    let rt = Batch_util.rt_block cl in
    (* Pass 1: route with the cost model and claim remasters,
       first-wins per partition. *)
    let routed = Array.map (fun txn -> Router.route router txn) txns in
    let claims = Hashtbl.create 64 in
    let wants_remaster = Array.make (Array.length txns) false in
    Array.iteri
      (fun i txn ->
        Planner.observe planner txn;
        Batch_util.touch cl txn;
        let node = routed.(i) in
        let missing =
          List.exists
            (fun part -> not (Placement.has_replica placement ~part ~node))
            txn.Txn.parts
        in
        if not missing then (
          let needed =
            List.filter
              (fun part -> not (Placement.has_primary placement ~part ~node))
              txn.Txn.parts
          in
          let all_claimable =
            List.for_all
              (fun part ->
                match Hashtbl.find_opt claims part with
                | Some n -> n = node
                | None -> true)
              needed
          in
          if all_claimable && needed <> [] then (
            List.iter (fun part -> Hashtbl.replace claims part node) needed;
            wants_remaster.(i) <- true)))
      txns;
    (* Apply the winning promotions; their network delays overlap into
       a single barrier (§IV-D). *)
    let any_remaster = Hashtbl.length claims > 0 in
    Hashtbl.iter
      (fun part node ->
        let lag_bytes =
          Stdlib.max 256
            (Lion_store.Replication.lag cl.Cluster.replication ~part * Config.record_bytes)
        in
        Network.charge cl.Cluster.network ~bytes:lag_bytes;
        Metrics.incr cl.Cluster.metrics Batch_promotions;
        Placement.remaster placement ~part ~node;
        (* The lag ship above brings the promoted copy current. *)
        Cluster.note_replica_synced cl ~part ~node)
      claims;
    (* Pass 2: conflict analysis and execution accounting. OCC
       conflicts among overlapping executions restart within the epoch
       (double work), they do not re-queue. *)
    let window = 4 * Config.total_workers cfg in
    let ok =
      Batch.conflict_verdicts ~window ~granule:(fun k -> (k :> int)) txns
    in
    let verdicts =
      Array.mapi
        (fun i txn ->
          let node = routed.(i) in
          let single =
            List.for_all
              (fun part -> Placement.has_primary placement ~part ~node)
              txn.Txn.parts
          in
          let work = Batch_util.ops_work txn in
          node_busy.(node) <-
            node_busy.(node) +. (if ok.(i) then work else 2.0 *. work);
          if not single then (
            (* 2PC fallback: the coordinator blocks on the prepare
               round; participants handle the messages. *)
            node_busy.(node) <- node_busy.(node) +. (2.0 *. rt);
            List.iter
              (fun part ->
                let owner = Placement.primary placement part in
                if owner <> node then
                  node_busy.(owner) <-
                    node_busy.(owner) +. (2.0 *. Config.msg_handle_cost))
              txn.Txn.parts);
          Batch_util.charge_replication cl txn;
          { Batch.committed = true; single_node = single; remastered = wants_remaster.(i) })
        txns
    in
    {
      Batch.verdicts;
      node_busy;
      serial_time = 0.0;
      barrier_time = (if any_remaster then cfg.Config.remaster_delay else 0.0);
      phase_split =
        [
          (Metrics.Execution, 0.45);
          (Metrics.Remaster, 0.1);
          (Metrics.Replication, 0.35);
          (Metrics.Commit, 0.1);
        ];
    }
  in
  let proto =
    Batch.create cl ~name ~process ~tick:(fun () -> Planner.tick planner)
      ~stage_labels:("sequencing", "remaster-barrier") ()
  in
  (proto, planner)

let create ?name ?seed ?config cl = fst (create_with_planner ?name ?seed ?config cl)
