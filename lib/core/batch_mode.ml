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
    | None -> if config.Planner.w_p > 0.0 then "Lion" else "Lion(RB)"
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
    (* A transaction wants a remaster when its node holds a replica of
       every partition it touches but not the primary of at least one,
       and no other node has claimed a primary it lacks; it then claims
       them all. Nothing is built unless it claims. *)
    let rec all_replicas node = function
      | [] -> true
      | part :: rest -> Placement.has_replica placement ~part ~node && all_replicas node rest
    in
    let rec claimable node wanted = function
      | [] -> wanted
      | part :: rest when Placement.has_primary placement ~part ~node -> claimable node wanted rest
      | part :: rest -> (
          match Hashtbl.find claims part with
          | owner -> owner = node && claimable node true rest
          | exception Not_found -> claimable node true rest)
    in
    let rec claim node = function
      | [] -> ()
      | part :: rest ->
          if not (Placement.has_primary placement ~part ~node) then
            Hashtbl.replace claims part node;
          claim node rest
    in
    Array.iteri
      (fun i txn ->
        Planner.observe planner txn;
        Batch_util.touch cl txn;
        let node = routed.(i) in
        let parts = txn.Txn.parts in
        if all_replicas node parts && claimable node false parts then (
          claim node parts;
          wants_remaster.(i) <- true))
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
    let ok = Batch.conflict_verdicts ~window txns in
    let rec all_primaries node = function
      | [] -> true
      | part :: rest -> Placement.has_primary placement ~part ~node && all_primaries node rest
    in
    let verdicts =
      Array.mapi
        (fun i txn ->
          let node = routed.(i) in
          let single = all_primaries node txn.Txn.parts in
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
          Batch.verdict ~committed:true ~single_node:single ~remastered:wants_remaster.(i))
        txns
    in
    {
      Batch.verdicts;
      node_busy;
      serial_time = 0.0;
      barrier_time = (if any_remaster then cfg.Config.remaster_delay else 0.0);
    }
  in
  let proto =
    Batch.create cl ~name ~process ~tick:(fun () -> Planner.tick planner)
      ~stage_labels:("sequencing", "remaster-barrier") ()
  in
  (proto, planner)

let create ?name ?seed ?config cl = fst (create_with_planner ?name ?seed ?config cl)
