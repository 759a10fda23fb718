(** The simulated cluster: nodes, network, placement, store, and the
    replica-manipulation primitives (remaster / add / remove replica)
    that the paper's adaptor invokes (§III, §V MHandler functions).

    All protocol implementations run against this one substrate; how a
    message between its nodes survives loss (calls, log shipping,
    anti-entropy) is {!Transport}. *)

type access_peak
(** The hottest [part_access] value, kept current by [touch_partition]
    and [decay_access] so [normalized_freq] is O(1). *)

type t = {
  cfg : Config.t;
  engine : Lion_sim.Engine.t;
  network : Lion_sim.Network.t;
  metrics : Lion_sim.Metrics.t;
  fault : Lion_sim.Fault.t;
      (** fault-injection state shared with the network layer; crash
          and recover events from [Config.fault_plan] are scheduled at
          [create] time and drive [fail_node] / [recover_node] *)
  placement : Placement.t;
  store : Kvstore.t;
  replication : Replication.t;
      (** per-partition replication logs; remastering ships the lag *)
  workers : Lion_sim.Server.t array;  (** per-node worker pool *)
  services : Lion_sim.Server.t array;
      (** per-node messenger pool (2 threads, §VI-A) handling remote
          sub-operations — separate from workers, as in the paper's
          thread model, so coordinators holding workers cannot deadlock
          with the remote work they wait on *)
  tracer : Lion_trace.Trace.t option;
      (** causal transaction tracer; [None] (the default) disables
          tracing entirely — protocols then thread [None] contexts and
          every instrumentation point is a no-op *)
  history : History.t option;
      (** consistency-audit history sink; [None] (the default) disables
          recording — the protocol engines then skip every recording
          point, leaving runs bit-for-bit unchanged *)
  rng : Lion_kernel.Rng.t;
  part_available : float array;
      (** per-partition time before which operations block (remaster
          or migration in progress) *)
  part_access : float array;
      (** decayed per-partition access counter; change it only through
          [touch_partition] and [decay_access], which keep [access_peak]
          equal to its maximum *)
  access_peak : access_peak;
  node_alive : bool array;  (** liveness; see [fail_node] *)
  part_last_remaster : float array;
      (** start time of each partition's most recent remaster, enforcing
          [Config.remaster_cooldown] against ping-pong *)
  resync_inflight : (int * int, unit) Hashtbl.t;
      (** (part, node) pairs with an anti-entropy repair in progress;
          owned by {!Transport} *)
  mutable resync_count : int;
      (** completed anti-entropy suffix ships (see
          [Transport.replicate_commit]) *)
  retry_budget : Lion_sim.Overload.Token_bucket.t option;
      (** global token bucket drawn on by every call / log-ship
          retransmission in {!Transport}; [None] (default, no
          [Config.retry_budget]) leaves retries unlimited *)
  breakers : Lion_sim.Overload.Breaker.t array;
      (** per-destination circuit breakers indexed by node, read by
          {!Transport}; [[||]] (default, no [Config.breaker]) disables
          them *)
  member : bool array;
      (** elastic membership (docs/MEMBERSHIP.md): slots currently in
          the cluster. The first [Config.nodes] slots start as members;
          standby slots join via [join_node] *)
  draining : bool array;  (** decommission in progress on this slot *)
  node_epoch : int array;
      (** per-slot incarnation counter, bumped on every (re)join — the
          staleness discriminator carried by [Replication.session] *)
  primary_term : int array;
      (** per-partition leadership term, bumped on every promotion
          (failover election or remaster) *)
  mutable membership_version : int;
      (** bumped on every join, decommission and failover *)
  mutable rebalance_running : bool;
  mutable rebalance_done : float;
      (** time the rebalancer last ran out of work and stopped *)
  move_target : int array;
      (** per-partition target of the replica copy in flight (-1 when
          none): the guard [install] keeps, one copy per partition *)
  move_source : int array;
      (** per-partition node the copy in flight vacates (-1 when none):
          set by balance and drain moves whose source still holds its
          copy once the install's eviction ran, cleared with
          [move_target] *)
  move_gen : int array;
      (** generation guard: a copy whose guard [fail_node] or a
          finished decommission dropped completes without touching the
          guard of a later install into the same partition *)
  remaster_target : int array;
      (** per-partition in-flight remaster target (-1 when none): one
          transfer at a time (the paper's remastering-conflict rule), and
          [fail_node] cancels those aimed at a dying node *)
  remaster_prev : float array;
      (** cooldown stamp to restore if the in-flight remaster fails *)
  remaster_started_at : float array;
  remaster_gen : int array;
      (** generation guard turning a cancelled remaster's completion
          timer into a no-op *)
  mutable reintroduce_phantom_secondary : bool;
      (** test-only hook, false after [create]: when set, a dead primary
          demoted in place by a planner remaster racing the election
          timer is {e not} purged, so the recovered node serves a
          frozen copy — the fuzzer's planted bug (docs/FUZZING.md) *)
  mutable reintroduce_stale_sessions : bool;
      (** test-only hook, false after [create]: when set, {!refuse_stale}
          accepts deliveries on stale sessions, re-planting the classic
          stale-replication-ack hazard that the divergence audit's
          [Stale_replica] check exists to catch (docs/MEMBERSHIP.md) *)
}

val create :
  ?seed:int -> ?tracer:Lion_trace.Trace.t -> ?history:History.t -> Config.t -> t

val now : t -> float

val node_count : t -> int
(** Slot capacity: [Config.total_slots]. Per-node
    structures (worker pools, routing tables) span this; non-member
    slots are never [alive], so they are invisible to routing. Equals
    [Config.nodes] with the default configuration. *)

val member_count : t -> int
(** Slots currently in the membership (draining nodes still count until
    their removal completes). *)

val partition_count : t -> int

val region_of : t -> int -> int
(** Region of a node slot ([Config.region_of_node]); 0 for every node
    while the cluster is region-free (docs/GEO.md). *)

val session_for : t -> part:int -> dst:int -> Replication.session
(** The identity of a stream to [dst] opened now: membership version,
    [part]'s leadership term and [dst]'s incarnation. *)

val session_stale : t -> dst:int -> Replication.session -> bool
(** Whether [dst] has left and rejoined since the session opened. *)

val refuse_stale : t -> stale:bool -> bool
(** Whether a delivery on a [stale] session is refused: always, unless
    [reintroduce_stale_sessions] is set; each refusal counts
    [Stale_acks]. *)

val touch_partition : t -> int -> unit
(** Bump the access counter used for f(v, n) in the cost model. *)

val decay_access : t -> float -> unit
(** Multiply all access counters by a factor in (0,1]; the planner calls
    this each analysis round so frequencies track the recent window. *)

val normalized_freq : t -> int -> float
(** f(v, ·) of Eq. 4: this partition's access counter divided by the
    hottest partition's (0 when nothing has been accessed). *)

val partition_wait : t -> int -> float
(** How long an operation arriving now must wait for the partition to
    come out of an in-progress remaster (0 if available). *)

val block_partition_for : t -> part:int -> duration:float -> unit
(** Make the partition unavailable for [duration] from now — used by
    migration-based protocols whose transfers block concurrent
    transactions (§II-B). *)

val try_begin_remaster : t -> part:int -> node:int -> bool
(** Attempt to start remastering [part] onto [node]. Returns false if a
    remaster of this partition is already in flight (the caller must
    fall back to 2PC) or if [node] holds no replica. On success the
    partition blocks for [cfg.remaster_delay]; at the end the placement
    is updated and lagging-log bytes are charged to the network.
    [Metrics.Remaster_complete] counts the transfer, and the
    [remaster_cooldown] stamp stays, only when it actually completes —
    a target dying mid-flight rolls the cooldown back so the partition
    can retry immediately
    ([fail_node] cancels such transfers eagerly rather than waiting for
    the completion timer). A handover whose lag ship predates the
    target's current incarnation is refused and counted as a stale-ack
    rejection. *)

val remaster_sync : t -> part:int -> node:int -> unit
(** Planner-side immediate remaster used when applying a plan outside
    transaction execution: blocks the partition and updates placement at
    completion time. No-op when [node] is already primary. *)

val install : t -> part:int -> node:int -> after:(unit -> unit) -> bool
(** The one way a replica copy starts — the planner's adds (through
    [Apply]) and every background rebalancer move go through it.
    Charges [Config.partition_bytes] to the network, waits
    [Config.replica_add_duration], then installs the secondary and runs
    [after]. If the partition is at [max_replicas], evicts the coldest
    secondary (the delete_flag mechanism) first, and again at
    completion if a direct [Placement] install (Leap's migrate path)
    filled the budget meanwhile. Never blocks transactions.

    One copy per partition is in flight at a time ([move_target]): a
    call for a partition whose copy is still in flight starts nothing
    and returns false, as do a dead [node] and a partition with no live
    copy to pull from; the caller re-plans later. If [node] already
    holds a replica, [after] runs at once and the result is true. The
    completion releases the guard on every exit — installed, already
    present, target dead, or refused as stale. A copy landing on a parked
    partition (no live primary) promotes [node] at once.

    The install stream carries a [Replication.session]: if the target
    crashed and rejoined while the snapshot was in flight, the install
    is dropped (counted as a stale-ack rejection, and [after] does not
    run). Under [reintroduce_stale_sessions] it lands instead,
    reproducing the stale-ack hazard: the placement gains a replica
    whose durable watermark never moved. *)

val remove_replica : t -> part:int -> node:int -> unit
(** Drop [node]'s secondary copy of [part], if it holds one. *)

val drop_secondary : t -> part:int -> node:int -> unit
(** Drop [node]'s secondary copy of [part] and forget its applied
    watermark — for callers that know the copy is a secondary,
    including layers that reshape replicas through [Placement]
    directly. Raises [Invalid_argument] as [Placement.remove_secondary]
    does otherwise. *)

val note_replica_synced : t -> part:int -> node:int -> unit
(** Stamp a replica's applied watermark to the current log length — for
    layers that install or refresh copies through [Placement] directly
    (the migration path, batch-mode remasters) rather than via
    [install]/[try_begin_remaster], which stamp it themselves. *)

val alive : t -> int -> bool
(** Routing liveness: the node is a current member and up. Standby
    slots, decommissioned nodes and crashed nodes all read false. *)

val alive_nodes : t -> int list

(** {2 Elastic membership} (docs/MEMBERSHIP.md)

    Nodes can join and leave the cluster under traffic. Both operations
    bump [membership_version] and, with [Config.elastic] set,
    kick a background rebalancer that performs at most one migration
    step per [1/rate] seconds: draining a decommissioned node's
    primaries (remaster away) and secondaries (copy, then drop),
    repairing under-replicated partitions, and evening replica counts
    onto a freshly joined node. Every copy goes through [install]; each
    step passes over partitions whose copy is in flight and aims by the
    load the copies in flight will leave, so several partitions' copies
    run at once. The loop stops whenever it has no work and nothing in
    flight — membership and liveness events restart it — so quiescing
    via [Engine.run_all] always terminates. *)

val join_node : t -> int -> bool
(** Activate a standby (or previously removed) slot: new incarnation
    (epoch bump), marked alive and member, traffic flows to it, and the
    rebalancer starts populating it. Returns false if the slot id is
    out of range or already a member. *)

val decommission_node : t -> int -> bool
(** Begin draining a member: it keeps serving while the rebalancer
    moves its primaries and secondaries away, then it leaves the
    membership for good ([Metrics.Node_drained] counts the completion).
    Returns false if the node is not a member, already draining, or too
    few other live members would remain to hold [Config.replicas]
    copies. *)

val plan_target_ok : t -> int -> bool
(** Eligibility of a node as a replica/remaster target for planners and
    the rebalancer: a live, non-draining member. *)

val work_scale : t -> int -> float
(** CPU slowdown multiplier for a node right now: the product of active
    [Fault.Straggler] specs covering it, 1.0 when healthy. Local and
    RPC service work is stretched by this factor. *)

val availability : t -> float
(** Point-in-time availability in [0,1]: the fraction of live nodes
    times the fraction of partitions whose primary is live and not
    blocked (by an election, remaster or lost-quorum wait). A healthy
    cluster reads 1.0; a crashed node degrades both factors until
    elections finish and the node recovers. *)

val fail_node : t -> int -> unit
(** Crash a node: its replicas become unreachable (secondaries are
    dropped from the placement — including the phantom secondary that
    failover's own [Placement.remaster] would otherwise leave on the
    dead node); the fault layer starts dropping messages to and from
    it; replica copies headed for it are cancelled; every partition whose primary lived there blocks for
    [Config.election_delay] and is then failed over to a surviving
    secondary. A partition with no surviving replica stays blocked
    until the node recovers (data loss is out of scope). Idempotent. *)

val recover_node : t -> int -> unit
(** Bring a node back empty: it rejoins with no replicas (its state is
    stale) and is repopulated by subsequent planner decisions. The
    rejoin is a new incarnation (epoch bump), so in-flight streams from
    before the crash are recognisably stale. Stale secondaries left on
    the node by layers that remastered partitions away through
    [Placement] directly while it was down are purged (counted as
    [Metrics.Replica_purges]). Any
    partition that was blocked for lack of replicas revives on this
    node after resynchronising: the unacknowledged log suffix is
    shipped from a live peer (charged to the network, same lagging-log
    rule as [try_begin_remaster]) and the partition reopens after
    [Config.election_delay] plus the shipping delay. *)

val worker_saturated : t -> node:int -> bool
(** True when every worker on [node] is leased right now — a fresh
    [acquire_worker] would queue. The executor uses this to decide
    whether a queue-wait span is worth opening. *)

val remasters_inflight : t -> int
(** Leader transfers currently in flight. At quiescence this must read
    0 — a non-zero value after a full drain means a transfer's
    completion timer was lost, which the liveness auditor reports as
    [Remaster_wedged] (docs/FUZZING.md). *)

val parked_partitions : t -> int list
(** Partitions currently parked as unavailable (no live primary and no
    surviving copy to promote), ascending. Non-empty after a full drain
    with every node recovered is a liveness finding. *)

val submit_local :
  t ->
  ?on_fail:(unit -> unit) ->
  ?prio:Lion_sim.Server.prio ->
  node:int -> work:float -> (unit -> unit) -> unit
(** Run [work] µs (stretched by [work_scale]) on one of [node]'s
    workers, then the continuation. A dead node refuses new work, as
    does a full bounded worker queue: [on_fail] (default: ignore) fires
    immediately instead. [prio] sets the admission class. *)

val acquire_worker :
  t -> ?on_fail:(unit -> unit) -> node:int -> (Lion_sim.Server.lease -> unit) -> unit
(** Hold one of [node]'s workers (a transaction coordinator's thread)
    until [release_worker]. With a bounded worker queue, [on_fail]
    (default: ignore — old behaviour, waits forever) fires if the
    request is shed instead of granted. *)

val release_worker : t -> node:int -> Lion_sim.Server.lease -> unit
