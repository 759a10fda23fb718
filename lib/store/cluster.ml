module Engine = Lion_sim.Engine
module Network = Lion_sim.Network
module Metrics = Lion_sim.Metrics
module Server = Lion_sim.Server
module Fault = Lion_sim.Fault
module Overload = Lion_sim.Overload
module Rng = Lion_kernel.Rng
module Trace = Lion_trace.Trace

let log_src = Logs.Src.create "lion.cluster" ~doc:"Cluster replica operations"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* An all-float record is stored flat, so assigning [hottest] writes an
   unboxed double instead of allocating a box per touch. *)
type access_peak = { mutable hottest : float }

type t = {
  cfg : Config.t;
  engine : Engine.t;
  network : Network.t;
  metrics : Metrics.t;
  fault : Fault.t;
  placement : Placement.t;
  store : Kvstore.t;
  replication : Replication.t;
  workers : Server.t array;
  services : Server.t array;
  tracer : Trace.t option;
  history : History.t option;
  rng : Rng.t;
  part_available : float array;
  part_access : float array;
  access_peak : access_peak;
  node_alive : bool array;
  part_last_remaster : float array;
  resync_inflight : (int * int, unit) Hashtbl.t;
  mutable resync_count : int;
  retry_budget : Overload.Token_bucket.t option;
  breakers : Overload.Breaker.t array;
  (* ---- Elastic membership (docs/MEMBERSHIP.md). All arrays span the
     full slot capacity ([Config.total_slots]); with no standby slots
     every field below is constant and the pre-elastic behaviour is
     preserved bit for bit. ---- *)
  member : bool array;
  draining : bool array;
  node_epoch : int array;
  primary_term : int array;
  mutable membership_version : int;
  mutable rebalance_running : bool;
  mutable rebalance_done : float;
  (* ---- The install guard: one copy per partition in flight, the node
     it vacates, and a generation that turns a cancelled copy's
     completion into a no-op for the guard (as [remaster_gen] does). ---- *)
  move_target : int array;
  move_source : int array;
  move_gen : int array;
  (* ---- In-flight remaster bookkeeping so [fail_node] can cancel a
     transfer whose target just died instead of leaving the completion
     timer to find out ([remaster_gen] makes the timer a no-op). ---- *)
  remaster_target : int array;
  remaster_prev : float array;
  remaster_started_at : float array;
  remaster_gen : int array;
  mutable reintroduce_phantom_secondary : bool;
  mutable reintroduce_stale_sessions : bool;
}

let[@inline] now t = Engine.now t.engine
let node_count t = Placement.nodes t.placement
let partition_count t = Placement.partitions t.placement

let member_count t =
  let c = ref 0 in
  Array.iter (fun m -> if m then incr c) t.member;
  !c

(* Identity of a replication/remaster stream, captured when the stream
   opens. [epoch] — the destination's incarnation — is the staleness
   discriminator: a node that left and rejoined the membership has a
   new epoch, so anything still in flight from its previous life is
   recognisably stale at delivery (docs/MEMBERSHIP.md). *)
let session_for t ~part ~dst : Replication.session =
  {
    Replication.version = t.membership_version;
    term = t.primary_term.(part);
    epoch = t.node_epoch.(dst);
  }

let[@inline] session_stale t ~dst (s : Replication.session) =
  t.node_epoch.(dst) <> s.Replication.epoch

let refuse_stale t ~stale =
  let refuse = stale && not t.reintroduce_stale_sessions in
  if refuse then Metrics.incr t.metrics Stale_acks;
  refuse

(* [access_peak.hottest] is the value [Array.fold_left max 0.0
   part_access] would return, maintained exactly rather than re-folded
   per routed transaction. A touch raises one counter, so the new
   maximum is the old one or that counter. A decay rescales every
   counter, so it recomputes the maximum over the rescaled values, once
   per planner round. *)
let[@inline] touch_partition t p =
  let v = t.part_access.(p) +. 1.0 in
  t.part_access.(p) <- v;
  if v > t.access_peak.hottest then t.access_peak.hottest <- v

let decay_access t factor =
  let hottest = ref 0.0 in
  for p = 0 to Array.length t.part_access - 1 do
    let v = t.part_access.(p) *. factor in
    t.part_access.(p) <- v;
    if v > !hottest then hottest := v
  done;
  t.access_peak.hottest <- !hottest

let normalized_freq t p =
  let hottest = t.access_peak.hottest in
  if hottest <= 0.0 then 0.0 else t.part_access.(p) /. hottest

(* [Stdlib.max 0.0], compared as floats: the polymorphic one calls the
   runtime's generic comparison. *)
let[@inline] partition_wait t p =
  let wait = t.part_available.(p) -. now t in
  if 0.0 >= wait then 0.0 else wait


let block_partition t p until =
  if until > t.part_available.(p) then t.part_available.(p) <- until

let block_partition_for t ~part ~duration = block_partition t part (now t +. duration)

let drop_secondary t ~part ~node =
  Placement.remove_secondary t.placement ~part ~node;
  Replication.forget_applied t.replication ~part ~node

(* Bytes of the unacknowledged log suffix of [part] — what a leader
   transfer or an orphaned primary's resync ships (§III). *)
let lag_bytes t ~part =
  Stdlib.max 256 (Replication.lag t.replication ~part * Config.record_bytes)

(* Replica installs run at high priority when [control_priority] asks
   for it (docs/OVERLOAD.md); the retry budget and the breakers live in
   [Transport]. *)
let ctl_prio t = if t.cfg.Config.control_priority then Server.High else Server.Normal

let[@inline] worker_saturated t ~node =
  Server.busy t.workers.(node) >= Server.capacity t.workers.(node)

let try_begin_remaster t ~part ~node =
  if not t.node_alive.(node) then false
  else if t.remaster_target.(part) >= 0 then false
  else if not (Placement.has_replica t.placement ~part ~node) then false
  else if Placement.has_primary t.placement ~part ~node then true
  else if
    now t -. t.part_last_remaster.(part) < t.cfg.Config.remaster_cooldown
  then false
  else (
    Metrics.incr t.metrics Remasters;
    (* Burn the cooldown optimistically so concurrent attempts see it,
       but remember the previous stamp: a transfer that fails (target
       died mid-flight, or the lag ship was lost to a partition) must
       not consume the partition's cooldown. *)
    let started = now t in
    let prev = t.part_last_remaster.(part) in
    t.part_last_remaster.(part) <- started;
    t.remaster_target.(part) <- node;
    t.remaster_prev.(part) <- prev;
    t.remaster_started_at.(part) <- started;
    let gen = t.remaster_gen.(part) in
    let session = session_for t ~part ~dst:node in
    (* Lagging-log synchronisation: ship the records the secondary has
       not yet acknowledged (§III), not the whole partition. If the
       fault layer kills the transfer (the target is partitioned away
       mid-handover), the promotion must not happen: a primary whose
       log suffix never arrived would serve stale state. *)
    let src = Placement.primary t.placement part in
    let lag_bytes = lag_bytes t ~part in
    (* The WAN latency cliff (docs/GEO.md): a leader transfer whose lag
       ship crosses a region boundary cannot complete before the ship
       lands, so the handover blocks for at least the cross-region link
       delay. Intra-region (and every region-free) transfer keeps the
       calibrated LAN figure. *)
    let delay =
      if Network.cross_region t.network ~src ~dst:node then
        Stdlib.max t.cfg.Config.remaster_delay
          (Network.link_delay t.network ~src ~dst:node ~bytes:lag_bytes)
      else t.cfg.Config.remaster_delay
    in
    block_partition t part (now t +. delay);
    let transfer_lost = ref false in
    Network.send t.network ~src ~dst:node ~bytes:lag_bytes
      ~on_drop:(fun () -> transfer_lost := true)
      (fun () -> ());
    Engine.schedule t.engine ~delay (fun () ->
        (* [fail_node] cancelled this transfer (the target died and the
           cooldown was already rolled back): the timer is a no-op. *)
        if t.remaster_gen.(part) = gen then begin
          (* The placement may have changed while blocked only via this
             remaster ([remaster_target] excludes races) — but the target
             may have died in the meantime. *)
          (if
             t.node_alive.(node)
             && Placement.has_replica t.placement ~part ~node
             && not !transfer_lost
           then
             let stale = session_stale t ~dst:node session in
             if refuse_stale t ~stale then begin
               (* The lag ship belongs to the target's previous
                  incarnation: refuse the handover rather than promote
                  a primary missing its log suffix. *)
               Metrics.incr t.metrics Remaster_stale_refuse;
               if t.part_last_remaster.(part) = started then
                 t.part_last_remaster.(part) <- prev
             end
             else begin
               Metrics.incr t.metrics Remaster_complete;
               Placement.remaster t.placement ~part ~node;
               t.primary_term.(part) <- t.primary_term.(part) + 1;
               (* The handover ships the lag, not the partition: an
                  incremental stream, so the durable watermark only
                  moves where durable state already exists. *)
               Replication.ack_stream t.replication ~part ~node
                 ~upto:(Replication.appends t.replication ~part)
                 ~stale;
               (* A partition parked as unavailable (lost quorum) now has
                  a live primary again: reopen it. *)
               if t.part_available.(part) = infinity then
                 t.part_available.(part) <- now t
             end
           else begin
             Metrics.incr t.metrics Remaster_abandon;
             if t.part_last_remaster.(part) = started then
               t.part_last_remaster.(part) <- prev
           end);
          t.remaster_target.(part) <- -1
        end);
    true)

let remaster_sync t ~part ~node =
  if not (Placement.has_primary t.placement ~part ~node) then
    ignore (try_begin_remaster t ~part ~node)

(* Geo helpers (docs/GEO.md): all read pure config, no state. The
   spread constraint is active only when [geo] asks for one — every
   other configuration keeps the historical decisions bit for bit. *)
let region_of t n = Config.region_of_node t.cfg n

let min_regions t =
  match t.cfg.Config.geo with Some g -> g.Config.min_regions | None -> 0

let geo_spread_on t = min_regions t >= 2

(* Region spread of [part] after dropping [without]'s copy and, when
   [plus] is given, adding one there instead. Callers gate on
   [geo_spread_on]. *)
let spanned_without_plus t ~part ~without ~plus =
  let prim = Placement.primary t.placement part in
  let rs =
    region_of t prim
    :: List.filter_map
         (fun s -> if s = without then None else Some (region_of t s))
         (Placement.secondaries t.placement part)
  in
  let rs = match plus with None -> rs | Some d -> region_of t d :: rs in
  List.length (List.sort_uniq compare rs)

(* Would dropping [node]'s copy of [part] (replaced by one on [dst]
   when given) keep the partition at [min_regions]? Vacuously yes
   without the spread constraint. *)
let removal_keeps_spread t ~part ~node ?dst () =
  (not (geo_spread_on t))
  || spanned_without_plus t ~part ~without:node ~plus:dst >= min_regions t

(* Evict the coldest secondary: every secondary serves no reads in this
   model, so "coldest" is decided by hosting-node pressure — shed from
   the node hosting the most replicas, deterministically. *)
let evict_one_secondary t ~part ~keep =
  let candidates = List.filter (fun n -> n <> keep) (Placement.secondaries t.placement part) in
  (* Under the spread constraint, never evict the last replica of a
     region when that would drop the partition below [min_regions] —
     unless every candidate would (then fall through unchanged). *)
  let candidates =
    match List.filter (fun n -> removal_keeps_spread t ~part ~node:n ()) candidates with
    | [] -> candidates
    | safe -> safe
  in
  match candidates with
  | [] -> ()
  | _ ->
      let victim =
        List.fold_left
          (fun best n ->
            match best with
            | None -> Some n
            | Some b ->
                let load_n = Placement.replicas_on t.placement n
                and load_b = Placement.replicas_on t.placement b in
                if load_n > load_b || (load_n = load_b && n < b) then Some n else Some b)
          None candidates
      in
      Option.iter (fun n -> drop_secondary t ~part ~node:n) victim

(* The live replica holders of [part], the primary first: the first is
   a copy source, and none means the data is unreachable until a holder
   recovers. *)
let live_replica_holders t part =
  let prim = Placement.primary t.placement part in
  let secs =
    List.filter (fun n -> t.node_alive.(n)) (Placement.secondaries t.placement part)
  in
  if t.node_alive.(prim) then prim :: secs else secs

(* Every replica copy starts here, the planner's and the rebalancer's.
   One copy per partition is in flight: the placement does not show a
   copy until it lands, so two installs picked independently would both
   land and leave the partition over-replicated. *)
let install t ~part ~node ~after =
  if not t.node_alive.(node) then false
  else if Placement.has_replica t.placement ~part ~node then (
    after ();
    true)
  else if t.move_target.(part) >= 0 then false
  else
    match live_replica_holders t part with
    | [] -> false (* no live copy to replicate from *)
    | src :: _ ->
        if
          Placement.replica_count t.placement part >= Placement.max_replicas t.placement
        then evict_one_secondary t ~part ~keep:node;
        Network.send t.network ~src ~dst:node ~bytes:Config.partition_bytes
          (fun () -> ());
        (* Snapshotting on the source and applying on the destination
           consume worker CPU, interfering with transaction processing. *)
        Server.submit t.workers.(src) ~prio:(ctl_prio t)
          ~work:Config.migration_cpu_cost (fun () -> ());
        Server.submit t.workers.(node) ~prio:(ctl_prio t)
          ~work:Config.migration_cpu_cost (fun () -> ());
        t.move_target.(part) <- node;
        let gen = t.move_gen.(part) and session = session_for t ~part ~dst:node in
        Engine.schedule t.engine ~delay:Config.replica_add_duration (fun () ->
            (* The one completion hook. It releases the guard on every
               exit, unless [take_down] already cancelled it. *)
            if t.move_gen.(part) = gen then begin
              t.move_target.(part) <- -1;
              t.move_source.(part) <- -1
            end;
            let stale = session_stale t ~dst:node session in
            (* A stale snapshot landed on storage that has since restarted
               empty: the install is dropped, and the caller retries
               with a fresh stream. *)
            if t.node_alive.(node) && not (refuse_stale t ~stale) then begin
              (if not (Placement.has_replica t.placement ~part ~node) then begin
                 (* Re-check the cap: Leap's migrate path
                    ([Exec.migrate_done]) adds secondaries through
                    [Placement] directly, so it can fill the budget while
                    the copy is in flight. *)
                 if
                   Placement.replica_count t.placement part
                   >= Placement.max_replicas t.placement
                 then evict_one_secondary t ~part ~keep:node;
                 Placement.add_secondary t.placement ~part ~node;
                 (if stale then
                    (* Accepted stale install (only under
                       [reintroduce_stale_sessions]): the placement and the
                       believed watermark now claim a caught-up replica
                       whose storage never durably received the snapshot
                       — the divergence the crash-rejoin audit exists to
                       expose. *)
                    Replication.ack_stream t.replication ~part ~node
                      ~upto:(Replication.appends t.replication ~part)
                      ~stale:true
                  else
                    (* A fresh install carries a full snapshot: the
                       replica starts caught up with the log. *)
                    Replication.set_applied t.replication ~part ~node
                      ~upto:(Replication.appends t.replication ~part));
                 Metrics.incr t.metrics Replica_adds
               end);
              (* A parked partition (no live copy left at crash time)
                 just received a full copy: promote it now rather than
                 wait for the corpse to revive, and purge the dead
                 primary's demoted phantom copy so it cannot come back as
                 a live replica on recovery. *)
              (if t.part_available.(part) = infinity then begin
                 Metrics.incr t.metrics Parked_promote;
                 let old = Placement.primary t.placement part in
                 Placement.remaster t.placement ~part ~node;
                 t.primary_term.(part) <- t.primary_term.(part) + 1;
                 if
                   (not t.node_alive.(old))
                   && Placement.has_secondary t.placement ~part ~node:old
                 then drop_secondary t ~part ~node:old;
                 t.part_available.(part) <- now t +. Config.election_delay
               end);
              after ()
            end);
        true

let remove_replica t ~part ~node =
  if Placement.has_secondary t.placement ~part ~node then drop_secondary t ~part ~node

(* Routing liveness: a node must be both up and a current member —
   standby slots and decommissioned nodes are invisible to the router
   and the protocols even though their arrays exist. *)
let[@inline] alive t n = t.member.(n) && t.node_alive.(n)

let alive_nodes t =
  List.filter
    (fun n -> t.member.(n) && t.node_alive.(n))
    (List.init (Placement.nodes t.placement) Fun.id)

let[@inline] work_scale t node =
  if Fault.slow_inert t.fault then 1.0 else Fault.slow_factor t.fault ~now:(now t) node

let availability t =
  let members = member_count t in
  let live = List.length (alive_nodes t) in
  let parts = Placement.partitions t.placement in
  let serveable = ref 0 in
  for p = 0 to parts - 1 do
    let prim = Placement.primary t.placement p in
    if t.node_alive.(prim) && t.part_available.(p) <= now t then incr serveable
  done;
  if members = 0 then 0.0
  else
    float_of_int live /. float_of_int members
    *. (float_of_int !serveable /. float_of_int parts)

(* ---- Elastic membership: join / decommission and the bounded
   background rebalancer (docs/MEMBERSHIP.md). The rebalancer is a
   self-terminating loop: each tick performs at most one migration step
   (so the elastic [rebalance_rate] bounds the step rate), keeps ticking
   while it is making progress or moves are in flight, and otherwise
   stops — every membership or liveness event re-kicks it, so the event
   queue always drains and [Engine.run_all] terminates. ---- *)

let plan_target_ok t n = t.member.(n) && t.node_alive.(n) && not t.draining.(n)

let eligible_targets t =
  List.filter (fun n -> plan_target_ok t n)
    (List.init (Placement.nodes t.placement) Fun.id)

(* Each node's replica load once the copies in flight land: placed
   replicas, plus copies headed to it, minus copies that vacate it.
   Every rebalancer step starts copies of several partitions at once
   and aims them by this load, so they do not all pick one node. *)
let loads t =
  let load = Array.init (Placement.nodes t.placement) (Placement.replicas_on t.placement) in
  let add n d = if n >= 0 then load.(n) <- load.(n) + d in
  Array.iteri (fun p dst -> add dst 1; add t.move_source.(p) (-1)) t.move_target;
  load

(* Least-loaded eligible node not yet holding [part] among those
   passing [pred]; first-lowest id on ties, so rebalancing stays
   deterministic. *)
let least_loaded t ~part pred =
  let load = loads t in
  List.fold_left
    (fun best n ->
      if Placement.has_replica t.placement ~part ~node:n || not (pred n) then best
      else match best with None -> Some n | Some b -> if load.(n) < load.(b) then Some n else best)
    None (eligible_targets t)

(* Under the region-spread constraint, targets in a region with no
   replica of [part] are preferred — installs then restore (or widen)
   the spread — with the unconstrained choice as fallback. *)
let best_install_target t ~part =
  let least_loaded = least_loaded t ~part in
  if geo_spread_on t then (
    let prim = Placement.primary t.placement part in
    (* A draining node's copies don't count as coverage: they are on
       their way out, and the install being placed here may be the one
       replacing them. *)
    let covered r =
      (region_of t prim = r && not t.draining.(prim))
      || List.exists
           (fun s -> (not t.draining.(s)) && region_of t s = r)
           (Placement.secondaries t.placement part)
    in
    match least_loaded (fun n -> not (covered (region_of t n))) with
    | Some n -> Some n
    | None -> least_loaded (fun _ -> true))
  else least_loaded (fun _ -> true)

let rebalance_period t =
  match t.cfg.Config.elastic with Some e -> 1e6 /. e.Config.rebalance_rate | None -> infinity

let moves_in_flight t = Array.exists (fun d -> d >= 0) t.move_target

(* Take [node] out of service (a crash, a finished decommission, a
   standby slot): routing and the fault layer see it gone, its queues
   close, and the copies headed for it are cancelled — it lands none, so
   their partitions need not wait them out. The generation bump keeps a
   cancelled copy's completion off the guard of a later install. *)
let take_down t node =
  t.node_alive.(node) <- false;
  Fault.mark_down t.fault node;
  Server.kill t.workers.(node);
  Server.kill t.services.(node);
  Array.iteri
    (fun part d ->
      if d = node then begin
        t.move_target.(part) <- -1;
        t.move_source.(part) <- -1;
        t.move_gen.(part) <- t.move_gen.(part) + 1
      end)
    t.move_target

(* A rebalancer move: an install, counted as one. *)
let start_move t ~part ~dst ~after =
  let started = install t ~part ~node:dst ~after in
  if started then Metrics.incr t.metrics Rebalance_moves;
  started

(* A move of [src]'s secondary copy of [part] to [dst], which holds
   none: the guard records [src], so [loads] counts it as vacated —
   unless the install's eviction (the partition was at [max_replicas])
   has already dropped that copy, which [loads] then no longer sees. *)
let relocate t ~part ~src ~dst =
  let started = start_move t ~part ~dst ~after:(fun () -> remove_replica t ~part ~node:src) in
  if started && Placement.has_secondary t.placement ~part ~node:src then
    t.move_source.(part) <- src;
  started

let rec rebalance_tick t =
  let stepped =
    let slots = Placement.nodes t.placement in
    let rec drain n =
      if n >= slots then false
      else if t.draining.(n) && drain_node_step t n then true
      else drain (n + 1)
    in
    drain 0 || repair_step t || spread_step t || balance_step t
  in
  if stepped || moves_in_flight t then
    Engine.schedule t.engine ~delay:(rebalance_period t) (fun () -> rebalance_tick t)
  else begin
    t.rebalance_running <- false;
    t.rebalance_done <- now t
  end

and kick_rebalancer t =
  if t.cfg.Config.elastic <> None && not t.rebalance_running then begin
    t.rebalance_running <- true;
    Engine.schedule t.engine ~delay:(rebalance_period t) (fun () -> rebalance_tick t)
  end

(* One step for a draining node, in order: move its primaries away,
   then its remaining secondaries, then finalise the removal. A
   partition whose copy is in flight is passed over, so the drain keeps
   one install going per partition rather than one at a time. *)
and drain_node_step t node =
  let idle p = t.move_target.(p) < 0 in
  match List.find_opt idle (Placement.parts_primary_on t.placement node) with
  | Some part -> (
      match
        List.filter (fun n -> plan_target_ok t n) (Placement.secondaries t.placement part)
      with
      | target :: _ ->
          (* A live secondary exists: hand leadership over. A false
             return here means cooldown or another in-flight remaster —
             both resolve in bounded time, so keep ticking. *)
          ignore (try_begin_remaster t ~part ~node:target);
          true
      | [] -> (
          match best_install_target t ~part with
          | Some dst ->
              start_move t ~part ~dst ~after:(fun () -> remaster_sync t ~part ~node:dst)
          | None -> false))
  | None -> (
      let parts = Placement.partitions t.placement in
      let rec first_secondary p =
        if p >= parts then None
        else if idle p && Placement.has_secondary t.placement ~part:p ~node then Some p
        else first_secondary (p + 1)
      in
      match first_secondary 0 with
      | Some part ->
          let others =
            List.filter (fun n -> n <> node) (live_replica_holders t part)
          in
          if
            List.length others >= t.cfg.Config.replicas
            && removal_keeps_spread t ~part ~node ()
          then begin
            (* The factor holds without this copy: drop it now. *)
            remove_replica t ~part ~node;
            true
          end
          else (
            match best_install_target t ~part with
            | Some dst -> relocate t ~part ~src:node ~dst
            | None -> false)
      | None ->
          if Placement.replicas_on t.placement node = 0 then begin
            (* Drained: leave the membership for good. *)
            t.draining.(node) <- false;
            t.member.(node) <- false;
            take_down t node;
            t.membership_version <- t.membership_version + 1;
            Metrics.incr t.metrics Node_drained;
            t.rebalance_done <- now t;
            Log.info (fun m -> m "node %d decommissioned at t=%.0fus" node (now t));
            Option.iter
              (fun tr -> Trace.instant ~node ~ts:(now t) tr "decommissioned")
              t.tracer;
            true
          end
          else false)

(* Re-establish the replication factor after a failure consumed copies
   (only partitions with a live source can be repaired). *)
and repair_step t =
  let parts = Placement.partitions t.placement in
  let rec go p =
    if p >= parts then false
    else
      let holders = live_replica_holders t p in
      if
        t.move_target.(p) < 0 && holders <> []
        && List.length holders < t.cfg.Config.replicas
      then
        match best_install_target t ~part:p with
        | Some dst ->
            (* The factor can be restored underneath the in-flight copy:
               a dead holder counted out at initiation may revive (its
               recovery resync brings it current) before the install
               completes, and the completion would leave the partition
               over-replicated for good — nothing else ever trims. Drop
               our own copy again if it turned out redundant. *)
            start_move t ~part:p ~dst ~after:(fun () ->
                if List.length (live_replica_holders t p) > t.cfg.Config.replicas
                then
                  if removal_keeps_spread t ~part:p ~node:dst () then
                    remove_replica t ~part:p ~node:dst
                  else evict_one_secondary t ~part:p ~keep:dst)
        | None -> go (p + 1)
      else go (p + 1)
  in
  go 0

(* Restore [min_regions] coverage that a failover remaster or a
   recovery purge consumed (docs/GEO.md): install a copy in an
   uncovered region, then trim the redundant copy from an over-covered
   one. Every other rebalance move is spread-preserving, so each repair
   here is final and the scan terminates; a partition whose uncovered
   regions have no eligible member is skipped — the next membership
   event re-kicks the rebalancer and retries. *)
and spread_step t =
  if not (geo_spread_on t) then false
  else
    let min_r = min_regions t in
    let parts = Placement.partitions t.placement in
    let rec go p =
      if p >= parts then false
      else if
        t.move_target.(p) >= 0
        || Placement.regions_spanned t.placement ~region_of:(region_of t) ~part:p
        >= min_r
      then go (p + 1)
      else
        let covered r =
          let prim = Placement.primary t.placement p in
          region_of t prim = r
          || List.exists
               (fun s -> region_of t s = r)
               (Placement.secondaries t.placement p)
        in
        match least_loaded t ~part:p (fun n -> not (covered (region_of t n))) with
        | Some dst ->
            start_move t ~part:p ~dst ~after:(fun () ->
                if List.length (live_replica_holders t p) > t.cfg.Config.replicas
                then evict_one_secondary t ~part:p ~keep:dst)
            || go (p + 1)
        | None -> go (p + 1)
    in
    go 0

(* Even out replica counts across eligible nodes — the catch-up path
   that populates a freshly joined node: one copy from the most to the
   least loaded node per step, by [loads], so the copies in flight
   together fill it without overshooting. *)
and balance_step t =
  match eligible_targets t with
  | [] | [ _ ] -> false
  | elig ->
      let load = loads t in
      let pick beats =
        List.fold_left (fun a n -> if beats load.(n) load.(a) then n else a) (List.hd elig) elig
      in
      let hi = pick ( > ) and lo = pick ( < ) in
      if load.(hi) <= load.(lo) + 1 then false
      else
        let parts = Placement.partitions t.placement in
        let rec go p =
          if p >= parts then false
          else if
            t.move_target.(p) < 0
            && Placement.has_secondary t.placement ~part:p ~node:hi
            && (not (Placement.has_replica t.placement ~part:p ~node:lo))
            && removal_keeps_spread t ~part:p ~node:hi ~dst:lo ()
          then relocate t ~part:p ~src:hi ~dst:lo
          else go (p + 1)
        in
        go 0

let join_node t node =
  if node < 0 || node >= Placement.nodes t.placement || t.member.(node) then false
  else begin
    Log.info (fun m -> m "node %d joined at t=%.0fus" node (now t));
    Metrics.incr t.metrics Node_join;
    Option.iter (fun tr -> Trace.instant ~node ~ts:(now t) tr "join") t.tracer;
    t.member.(node) <- true;
    t.draining.(node) <- false;
    (* A fresh incarnation: anything still in flight from a previous
       life of this slot is stale from here on. *)
    t.node_epoch.(node) <- t.node_epoch.(node) + 1;
    t.node_alive.(node) <- true;
    Fault.mark_up t.fault node;
    Server.revive t.workers.(node);
    Server.revive t.services.(node);
    t.membership_version <- t.membership_version + 1;
    kick_rebalancer t;
    true
  end

let decommission_node t node =
  let others = List.filter (fun n -> n <> node) (eligible_targets t) in
  (* Under the spread constraint, the last member of a region cannot
     leave: [min_regions] would become unsatisfiable for every
     partition (docs/GEO.md). *)
  let region_has_other_member =
    (not (geo_spread_on t))
    || List.exists
         (fun n ->
           n <> node
           && t.member.(n)
           && (not t.draining.(n))
           && region_of t n = region_of t node)
         (List.init (Placement.nodes t.placement) Fun.id)
  in
  if
    (not t.member.(node))
    || t.draining.(node)
    || List.length others < t.cfg.Config.replicas
    || not region_has_other_member
  then false
  else begin
    Log.info (fun m -> m "node %d draining at t=%.0fus" node (now t));
    Metrics.incr t.metrics Node_decommission;
    Option.iter (fun tr -> Trace.instant ~node ~ts:(now t) tr "decommission") t.tracer;
    t.draining.(node) <- true;
    t.membership_version <- t.membership_version + 1;
    kick_rebalancer t;
    true
  end

let fail_node t node =
  if t.node_alive.(node) then (
    Log.warn (fun m -> m "node %d failed at t=%.0fus" node (now t));
    Metrics.incr t.metrics Node_crash;
    Option.iter (fun tr -> Trace.instant ~node ~ts:(now t) tr "crash") t.tracer;
    (* Fail-fast the admission queues: work parked behind the dead
       node's workers/messengers is shed now (its [on_shed] fires)
       instead of executing after a grant from a corpse. *)
    take_down t node;
    let parts = Placement.partitions t.placement in
    (* Cancel in-flight remasters whose transfer target just died:
       release the guard and roll back the optimistically burned
       cooldown now, instead of leaving both to a completion timer that
       can only discover the death [remaster_delay] later. The
       generation bump turns that timer into a no-op on every exit
       path. *)
    for part = 0 to parts - 1 do
      if t.remaster_target.(part) = node then begin
        Metrics.incr t.metrics Remaster_cancel;
        if t.part_last_remaster.(part) = t.remaster_started_at.(part) then
          t.part_last_remaster.(part) <- t.remaster_prev.(part);
        t.remaster_gen.(part) <- t.remaster_gen.(part) + 1;
        t.remaster_target.(part) <- -1
      end
    done;
    if t.member.(node) then t.membership_version <- t.membership_version + 1;
    for part = 0 to parts - 1 do
      if Placement.has_secondary t.placement ~part ~node then (
        drop_secondary t ~part ~node;
        (* This may have been the last live copy of a partition whose
           primary died earlier (cascading failure): park it until a
           replica holder recovers. *)
        let prim = Placement.primary t.placement part in
        if
          (not t.node_alive.(prim))
          && not
               (List.exists
                  (fun n -> t.node_alive.(n))
                  (Placement.secondaries t.placement part))
        then (
          Metrics.incr t.metrics Partition_parked;
          t.part_available.(part) <- infinity))
    done;
    for part = 0 to parts - 1 do
      if Placement.has_primary t.placement ~part ~node then (
        match
          List.filter (fun n -> t.node_alive.(n)) (Placement.secondaries t.placement part)
        with
        | [] ->
            (* No surviving replica: unavailable until the node
               recovers with its (stale but only) copy. *)
            Metrics.incr t.metrics Partition_parked;
            t.part_available.(part) <- infinity
        | _ :: _ ->
            block_partition t part (now t +. Config.election_delay);
            Engine.schedule t.engine ~delay:Config.election_delay (fun () ->
                let promoted =
                  match
                    List.filter
                      (fun n -> t.node_alive.(n))
                      (Placement.secondaries t.placement part)
                  with
                  | winner :: _ when Placement.primary t.placement part = node ->
                      Metrics.incr t.metrics Election_promote;
                      Placement.remaster t.placement ~part ~node:winner;
                      (* Election includes catching the winner up from the
                         surviving quorum's logs. *)
                      Replication.set_applied t.replication ~part ~node:winner
                        ~upto:(Replication.appends t.replication ~part);
                      Option.iter
                        (fun tr -> Trace.instant ~node:winner ~ts:(now t) tr "election")
                        t.tracer;
                      true
                  | _ -> false
                in
                (* Whether the election above promoted a winner or a
                   planner moved mastership on its own before the timer
                   fired (batch-mode claims apply [Placement.remaster]
                   directly), the dead primary has been demoted to a
                   secondary: purge that phantom copy so it cannot
                   rejoin as a stale replica on recovery.
                   [reintroduce_phantom_secondary] re-plants the bug
                   this purge fixed: only the election's own promotion
                   cleans up after itself, so a planner remaster racing
                   the timer leaves the phantom in place. *)
                if
                  (promoted || not t.reintroduce_phantom_secondary)
                  && (not t.node_alive.(node))
                  && Placement.has_secondary t.placement ~part ~node
                then (
                  Metrics.incr t.metrics Phantom_purge;
                  drop_secondary t ~part ~node)))
    done;
    (* A failure consumed replicas: the elastic rebalancer (when
       enabled) restores the replication factor in the background. *)
    kick_rebalancer t)

let recover_node t node =
  if t.member.(node) && not t.node_alive.(node) then (
    Log.info (fun m -> m "node %d recovered at t=%.0fus" node (now t));
    Metrics.incr t.metrics Node_recover;
    Option.iter (fun tr -> Trace.instant ~node ~ts:(now t) tr "recover") t.tracer;
    (* The rejoining node is a new incarnation of the slot: bump its
       epoch first, so every stream opened before the crash is
       recognisably stale from this instant (docs/MEMBERSHIP.md). *)
    t.node_epoch.(node) <- t.node_epoch.(node) + 1;
    t.node_alive.(node) <- true;
    Fault.mark_up t.fault node;
    Server.revive t.workers.(node);
    Server.revive t.services.(node);
    let parts = Placement.partitions t.placement in
    (* Purge stale secondaries: [fail_node] dropped every secondary the
       node held, so any secondary present now was left by a layer that
       remastered the partition away through [Placement] directly while
       the node was down, demoting its dead primary in place. The copy
       is stale — it missed every append since the crash — and must not
       rejoin as a live replica. *)
    if not t.reintroduce_phantom_secondary then
      for part = 0 to parts - 1 do
        if Placement.has_secondary t.placement ~part ~node then begin
          Metrics.incr t.metrics Rejoin_purge;
          drop_secondary t ~part ~node;
          Metrics.incr t.metrics Replica_purges
        end
      done;
    (* The log-shipping peer for resynchronisation: any live node can
       serve the tail of the durable log (group-commit makes every
       commit reach the log before acknowledgement). *)
    let peer =
      List.find_opt (fun n -> n <> node) (alive_nodes t)
    in
    for part = 0 to parts - 1 do
      if Placement.has_primary t.placement ~part ~node && t.part_available.(part) = infinity
      then begin
        Metrics.incr t.metrics Orphan_resync;
        (* The orphaned primary rejoins with a stale copy: resync the
           unacknowledged log suffix through the replication model —
           the same lagging-log rule [try_begin_remaster] applies —
           and charge it to the network before serving again. *)
        let lag_bytes = lag_bytes t ~part in
        (match peer with
        | Some src -> Network.send t.network ~src ~dst:node ~bytes:lag_bytes (fun () -> ())
        | None -> Network.charge t.network ~bytes:lag_bytes);
        (* The resync brings the rejoining primary's log current. *)
        Replication.set_applied t.replication ~part ~node
          ~upto:(Replication.appends t.replication ~part);
        t.part_available.(part) <-
          now t +. Config.election_delay
          +. Network.oneway_delay t.network ~bytes:lag_bytes
      end
    done;
    kick_rebalancer t)

let submit_local t ?(on_fail = fun () -> ()) ?prio ~node ~work k =
  if t.node_alive.(node) then
    Server.submit t.workers.(node) ?prio ~on_shed:on_fail
      ~work:(work *. work_scale t node) k
  else on_fail ()

let acquire_worker t ?on_fail ~node k =
  Server.acquire t.workers.(node) ?on_shed:on_fail k
let release_worker t ~node lease = Server.release t.workers.(node) lease

(* Applied-watermark bookkeeping for layers that move replicas through
   [Placement] directly (the Leap migrate path, batch-mode remasters):
   a copy installed by such a transfer is current as of the transfer. *)
let note_replica_synced t ~part ~node =
  if Placement.has_replica t.placement ~part ~node then
    Replication.set_applied t.replication ~part ~node
      ~upto:(Replication.appends t.replication ~part)

(* Ground-truth liveness introspection (docs/FUZZING.md): after a run
   drains to quiescence, every leader transfer must have resolved and
   every partition must have a live primary again. The liveness auditor
   reads these. *)
let remasters_inflight t =
  Array.fold_left (fun acc d -> if d >= 0 then acc + 1 else acc) 0 t.remaster_target

let parked_partitions t =
  let parts = Placement.partitions t.placement in
  let rec go p acc =
    if p < 0 then acc
    else go (p - 1) (if t.part_available.(p) = infinity then p :: acc else acc)
  in
  go (parts - 1) []

let create ?(seed = 1) ?tracer ?history cfg =
  let engine = Engine.create () in
  let metrics = Metrics.create ~seed engine in
  (* Per-node structures span the full slot capacity; standby slots
     start dead, non-member and invisible until [join_node]. With no
     standby slots ([Config.default]) this equals [cfg.nodes]. *)
  let slots = Config.total_slots cfg in
  let fault = Fault.create ~seed ~nodes:slots cfg.Config.fault_plan in
  (* A region topology exists only when asked for; without [geo] the
     network stays on the historical single-latency-class path, bit for
     bit (docs/GEO.md). *)
  let topology =
    Option.map
      (fun g ->
        {
          Network.regions = g.Config.regions;
          region_of = Array.init slots (Config.region_of_node cfg);
          wan_latency = g.Config.wan_latency;
          wan_per_byte = g.Config.wan_per_byte;
        })
      cfg.Config.geo
  in
  let network =
    Network.create ~latency:Config.net_latency ~per_byte:Config.net_per_byte
      ?topology ~fault ~metrics engine
  in
  let parts = Config.total_partitions cfg in
  let placement =
    Placement.create ~standby:(slots - cfg.Config.nodes) ~nodes:cfg.Config.nodes
      ~partitions:parts ~replicas:cfg.Config.replicas
      ~max_replicas:cfg.Config.max_replicas ()
  in
  (* Region-spread constraint: repair the round-robin seed layout so
     every partition spans [min_regions] regions before any replication
     state is seeded. Standby slots are not eligible targets. *)
  (match cfg.Config.geo with
  | Some { Config.min_regions; _ } when min_regions >= 2 ->
      Placement.spread_regions placement
        ~region_of:(Config.region_of_node cfg)
        ~eligible:(fun n -> n < cfg.Config.nodes)
        ~min_regions
  | _ -> ());
  let server capacity =
    Server.create
      ?queue_cap:(Option.map (fun a -> a.Config.queue_cap) cfg.Config.admission)
      ?policy:(Option.map (fun a -> a.Config.shed_policy) cfg.Config.admission)
      ~on_shed:(fun () -> Metrics.incr metrics Sheds)
      engine ~capacity
  in
  let t =
    {
      cfg;
      engine;
      network;
      metrics;
      fault;
      placement;
      store = Kvstore.create ();
      replication =
        Replication.create ~interval:Config.group_commit_interval ~partitions:parts
          ~slots engine;
      workers = Array.init slots (fun _ -> server cfg.Config.workers_per_node);
      services = Array.init slots (fun _ -> server 2);
      tracer;
      history;
      rng = Rng.create seed;
      part_available = Array.make parts 0.0;
      part_access = Array.make parts 0.0;
      access_peak = { hottest = 0.0 };
      node_alive = Array.init slots (fun n -> n < cfg.Config.nodes);
      part_last_remaster = Array.make parts neg_infinity;
      resync_inflight = Hashtbl.create 64;
      resync_count = 0;
      retry_budget =
        Option.map
          (fun { Config.rate; burst } ->
            Overload.Token_bucket.create ~rate_per_s:rate ~burst)
          cfg.Config.retry_budget;
      breakers =
        (match cfg.Config.breaker with
        | Some { Config.threshold; cooldown } ->
            Array.init slots (fun _ -> Overload.Breaker.create ~threshold ~cooldown)
        | None -> [||]);
      member = Array.init slots (fun n -> n < cfg.Config.nodes);
      draining = Array.make slots false;
      node_epoch = Array.make slots 0;
      primary_term = Array.make parts 0;
      membership_version = 0;
      rebalance_running = false;
      rebalance_done = 0.0;
      move_target = Array.make parts (-1);
      move_source = Array.make parts (-1);
      move_gen = Array.make parts 0;
      remaster_target = Array.make parts (-1);
      remaster_prev = Array.make parts neg_infinity;
      remaster_started_at = Array.make parts neg_infinity;
      remaster_gen = Array.make parts 0;
      reintroduce_phantom_secondary = false;
      reintroduce_stale_sessions = false;
    }
  in
  (* Standby slots are outside the membership until a join: the fault
     layer drops traffic to them and their (empty) queues are closed. *)
  for n = cfg.Config.nodes to slots - 1 do
    take_down t n
  done;
  (* Every initial replica holds its (empty) partition durably — the
     ground-truth rows the durable watermark advances through. *)
  for part = 0 to parts - 1 do
    Replication.seed_replica t.replication ~part
      ~node:(Placement.primary t.placement part);
    List.iter
      (fun n -> Replication.seed_replica t.replication ~part ~node:n)
      (Placement.secondaries t.placement part)
  done;
  (* Crash/recover events from the fault plan drive the same failover
     machinery as explicit [fail_node] / [recover_node] calls. *)
  List.iter
    (fun (time, ev) ->
      Engine.at engine ~time (fun () ->
          match ev with
          | `Crash n -> fail_node t n
          | `Recover n -> recover_node t n))
    (Fault.crash_events cfg.Config.fault_plan);
  (* Static fault windows become trace instants up front: instants are
     pure recorded data (no engine events), so tracing a faulty run
     perturbs nothing. Crash/recover instants are emitted by
     [fail_node]/[recover_node] when they actually happen. *)
  Option.iter
    (fun tr ->
      List.iter
        (function
          | Fault.Crash _ -> ()
          | Fault.Partition { from_; until; _ } ->
              Trace.instant ~ts:from_ tr "partition-start";
              Trace.instant ~ts:until tr "partition-heal"
          | Fault.Drop { from_; until; _ } ->
              Trace.instant ~ts:from_ tr "drop-start";
              Trace.instant ~ts:until tr "drop-end"
          | Fault.Jitter { from_; until; _ } ->
              Trace.instant ~ts:from_ tr "jitter-start";
              Trace.instant ~ts:until tr "jitter-end"
          | Fault.Straggler { node; from_; until; _ } ->
              Trace.instant ~node ~ts:from_ tr "straggler-start";
              Trace.instant ~node ~ts:until tr "straggler-end"
          | Fault.Delay { from_; until; _ } ->
              Trace.instant ~ts:from_ tr "delay-start";
              Trace.instant ~ts:until tr "delay-end")
        cfg.Config.fault_plan)
    tracer;
  t
