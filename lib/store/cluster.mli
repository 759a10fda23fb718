(** The simulated cluster: nodes, network, placement, store, and the
    replica-manipulation primitives (remaster / add / remove replica)
    that the paper's adaptor invokes (§III, §V MHandler functions).

    All protocol implementations run against this one substrate. *)

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
  mutable remaster_count : int;
  mutable replica_add_count : int;
  mutable migration_count : int;
  mutable remaster_inflight : bool array;
      (** per-partition flag to serialise concurrent remaster attempts
          (the paper's remastering-conflict rule: one wins, others fall
          back to 2PC) *)
  resync_inflight : (int * int, unit) Hashtbl.t;
      (** (part, node) pairs with an anti-entropy repair in progress *)
  mutable resync_count : int;
      (** completed anti-entropy suffix ships (see [replicate_commit]) *)
  retry_budget : Lion_sim.Overload.Token_bucket.t option;
      (** global token bucket drawn on by every RPC / log-ship
          retransmission; [None] (default, no [Config.retry_budget])
          leaves retries unlimited *)
  breakers : Lion_sim.Overload.Breaker.t array;
      (** per-destination circuit breakers indexed by node; [[||]]
          (default, no [Config.breaker]) disables them *)
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
  mutable join_count : int;
  mutable decommission_count : int;  (** completed (fully drained) removals *)
  mutable rebalance_migrations : int;
      (** replica installs initiated by the background rebalancer *)
  mutable rebalance_running : bool;
  mutable rebalance_started : float;
      (** time of the most recent membership change that started
          rebalancing work — with [rebalance_done], the experiment's
          time-to-rebalance measurement *)
  mutable rebalance_done : float;
      (** time the rebalancer last ran out of work and stopped *)
  move_inflight : (int * int, unit) Hashtbl.t;
      (** (part, dst) rebalance installs in flight, guarding against
          duplicate moves; cleared on completion or target death *)
  remaster_target : int array;
      (** per-partition in-flight remaster target (-1 when none) — lets
          [fail_node] cancel transfers aimed at a dying node *)
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
    [remaster_count] and the [remaster_cooldown] stamp are only charged
    when the transfer actually completes — a target dying mid-flight
    rolls the cooldown back so the partition can retry immediately
    ([fail_node] cancels such transfers eagerly rather than waiting for
    the completion timer). With [Config.session_tagging], a handover
    whose lag ship predates the target's current incarnation is
    refused and counted as a stale-ack rejection. *)

val remaster_sync : t -> part:int -> node:int -> unit
(** Planner-side immediate remaster used when applying a plan outside
    transaction execution: blocks the partition and updates placement at
    completion time. No-op when [node] is already primary. *)

val add_replica : t -> part:int -> node:int -> on_ready:(unit -> unit) -> unit
(** Background replica addition: charges [partition_bytes] to the
    network, waits [replica_add_duration], then installs the secondary.
    If the partition is at [max_replicas], evicts the coldest secondary
    (the delete_flag mechanism) first; if [node] already holds a
    replica, fires [on_ready] immediately. Never blocks transactions.
    The install stream carries a [Replication.session]: if the target
    crashed and rejoined while the snapshot was in flight, a tagged
    session drops the install (counted as a stale-ack rejection), while
    an untagged one reproduces the stale-ack hazard — the placement
    gains a replica whose durable watermark never moved. *)

val remove_replica : t -> part:int -> node:int -> unit

val note_replica_synced : t -> part:int -> node:int -> unit
(** Stamp a replica's applied watermark to the current log length — for
    layers that install or refresh copies through [Placement] directly
    (the migration path, batch-mode remasters) rather than via
    [add_replica]/[try_begin_remaster], which stamp it themselves. *)

val note_replica_dropped : t -> part:int -> node:int -> unit
(** Forget a replica's applied watermark after dropping the copy
    through [Placement] directly. *)

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
    onto a freshly joined node. The loop stops whenever it has no work
    and nothing in flight — membership and liveness events restart it —
    so quiescing via [Engine.run_all] always terminates. *)

val join_node : t -> int -> bool
(** Activate a standby (or previously removed) slot: new incarnation
    (epoch bump), marked alive and member, traffic flows to it, and the
    rebalancer starts populating it. Returns false if the slot id is
    out of range or already a member. *)

val decommission_node : t -> int -> bool
(** Begin draining a member: it keeps serving while the rebalancer
    moves its primaries and secondaries away, then it leaves the
    membership for good ([decommission_count] ticks at completion).
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
    it; every partition whose primary lived there blocks for
    [cfg.election_delay] and is then failed over to a surviving
    secondary. A partition with no surviving replica stays blocked
    until the node recovers (data loss is out of scope). Idempotent. *)

val recover_node : t -> int -> unit
(** Bring a node back empty: it rejoins with no replicas (its state is
    stale) and is repopulated by subsequent planner decisions. The
    rejoin is a new incarnation (epoch bump), so in-flight streams from
    before the crash are recognisably stale. Stale secondaries left on
    the node by layers that remastered partitions away through
    [Placement] directly while it was down are purged (counted as
    [Metrics.replica_purges]). Any
    partition that was blocked for lack of replicas revives on this
    node after resynchronising: the unacknowledged log suffix is
    shipped from a live peer (charged to the network, same lagging-log
    rule as [try_begin_remaster]) and the partition reopens after
    [cfg.election_delay] plus the shipping delay. *)

val worker_saturated : t -> node:int -> bool
(** True when every worker on [node] is leased right now — a fresh
    [acquire_worker] would queue. The executor uses this to decide
    whether a queue-wait span is worth opening. *)

val breaker_state : t -> int -> Lion_sim.Overload.Breaker.state
(** Current breaker state for RPCs to a node ([Closed] when breakers
    are disabled). *)

val remasters_inflight : t -> int
(** Leader transfers currently in flight. At quiescence this must read
    0 — a non-zero value after a full drain means a transfer's
    completion timer was lost, which the liveness auditor reports as
    [Remaster_wedged] (docs/FUZZING.md). *)

val parked_partitions : t -> int list
(** Partitions currently parked as unavailable (no live primary and no
    surviving copy to promote), ascending. Non-empty after a full drain
    with every node recovered is a liveness finding. *)

val total_sheds : t -> int
(** Lifetime sum of requests shed by every worker and messenger queue
    in the cluster (never reset). *)

val node_load : t -> int -> float
(** Busy-time of the node's worker pool since the last counter reset —
    Clay's overload signal and our load-balance measurements. *)

val reset_load_counters : t -> unit

val submit_local :
  t ->
  ?on_fail:(unit -> unit) ->
  ?prio:Lion_sim.Server.prio ->
  node:int -> work:float -> (unit -> unit) -> unit
(** Run [work] µs (stretched by [work_scale]) on one of [node]'s
    workers, then the continuation. A dead node refuses new work, as
    does a full bounded worker queue: [on_fail] (default: ignore) fires
    immediately instead. [prio] sets the admission class. *)

val rpc :
  t ->
  ?on_fail:(unit -> unit) ->
  ?ctx:Lion_trace.Trace.ctx ->
  ?deadline:float ->
  ?prio:Lion_sim.Server.prio ->
  src:int -> dst:int -> bytes:int -> work:float -> (unit -> unit) -> unit
(** Round trip: request message, [work] µs of service on [dst]'s
    messenger pool (stretched by [dst]'s [work_scale]), reply message;
    continuation fires at reply arrival. Local calls skip the wire but
    still consume [work]. If the request or reply is lost (fault layer:
    drop, partition, dead endpoint) or shed by [dst]'s admission queue,
    the sender times out [cfg.rpc_timeout] µs after the attempt began
    and retransmits with exponential backoff ([cfg.rpc_backoff]
    doubling per attempt), up to [cfg.rpc_retries] retries; exhausting
    them records a timeout and fires [on_fail] (default: ignore). A
    retransmission may re-execute [work] on [dst] — modelled services
    are idempotent. Timers are created lazily at the moment of loss, so
    healthy runs schedule no extra events and stay bit-for-bit
    deterministic.

    Overload controls (each off by default — docs/OVERLOAD.md):
    a retransmission is abandoned (and [on_fail] fires) once [deadline]
    — an absolute simulated time — has passed, or when the cluster
    retry budget is dry. When breakers are configured, a remote call to
    a destination whose breaker is open fails fast (no wire traffic);
    terminal failures feed the breaker, delivered replies reset it.
    [prio] sets the admission class on [dst]'s messenger queue.

    [ctx] traces the call: one child span per attempt (wire, remote
    service time and reply each nested under it), with "retry" /
    "timeout" / "deadline" / "budget-denied" / "shed" annotations — see
    {!Lion_trace.Trace}. *)

val acquire_worker :
  t -> ?on_fail:(unit -> unit) -> node:int -> (Lion_sim.Server.lease -> unit) -> unit
(** Hold one of [node]'s workers (a transaction coordinator's thread)
    until [release_worker]. With a bounded worker queue, [on_fail]
    (default: ignore — old behaviour, waits forever) fires if the
    request is shed instead of granted. *)

val release_worker : t -> node:int -> Lion_sim.Server.lease -> unit

val replicate_commit : t -> ?ctx:Lion_trace.Trace.ctx -> int list -> unit
(** [replicate_commit t parts] charges asynchronous replication traffic
    for a commit touching [parts]: one log record per secondary replica. Group-commit batching
    is modelled by the per-byte cost only (no blocking). Lost log
    records are retransmitted with the RPC backoff schedule (the stream
    is idempotent); exhausting the retries records a timeout and starts
    an anti-entropy repair that re-ships the replica's missing log
    suffix from a live peer (with backoff, bounded retries) until its
    applied watermark catches the log — so a long partition cannot
    leave a secondary permanently diverged. Retransmissions draw on the
    cluster retry budget, and a destination with an open breaker skips
    the per-record stream entirely in favour of anti-entropy. [ctx]
    traces each log ship as an async "replication" span. *)
