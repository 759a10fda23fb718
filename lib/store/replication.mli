(** Per-partition replication log with epoch-based group commit lag.

    Primaries append one log record per committed write set; secondaries
    acknowledge asynchronously, one group-commit epoch (plus wire time)
    behind. The {e lag} of a partition — records appended in the last
    [sync_delay] — is what a remastering must ship to the promoted
    secondary before the leader handover (§III's "lagging logs will be
    synchronized from the leader to the target secondary"), so the
    cluster charges remaster bytes proportional to it. *)

type session = { version : int; term : int; epoch : int }
(** Identity of one replication/remaster stream, captured when the
    stream is opened (docs/MEMBERSHIP.md). [version] is the cluster's
    membership version and [term] the partition's primary term — the
    pair openraft calls a [ReplicationSessionId]; [epoch] is the
    destination node's incarnation number, the field that actually
    detects staleness: if the destination crashed and rejoined after
    the stream was opened, its epoch has moved on and the stream's
    bytes describe state the node no longer holds. *)

type t

val create :
  ?sync_delay:float ->
  interval:float ->
  partitions:int ->
  slots:int ->
  Lion_sim.Engine.t ->
  t
(** [interval]: group-commit epoch length in µs (bucket granularity of
    the lag window). [sync_delay] defaults to 2 × interval: one epoch
    of buffering plus the replication round trip. [slots] is the number
    of node slots ([Config.total_slots]); the watermarks below take a
    [node] in [0, slots) and raise [Invalid_argument] outside it. *)

val append : t -> part:int -> unit
(** Record one committed write set on the partition's log. *)

val appends : t -> part:int -> int
(** Total records ever appended to the partition's log. *)

val lag : t -> part:int -> int
(** Records appended within the trailing [sync_delay] — not yet
    acknowledged by the secondaries. *)

val total_appends : t -> int
val sync_delay : t -> float

(** {2 Per-replica apply progress}

    The cluster stamps how far each replica of a partition has applied
    the log: log-ship deliveries, remaster transfers, failover
    elections, replica installs and recovery resyncs all advance it.
    At quiescence every live replica must have applied the full log —
    that is exactly what {!Lion_audit.Divergence} verifies. *)

val applied : t -> part:int -> node:int -> int
(** Last log index [node] has applied for [part] (0 if never stamped —
    the initial placement starts with empty logs). *)

val set_applied : t -> part:int -> node:int -> upto:int -> unit
(** Advance the replica's apply watermark (monotonic: lower values are
    ignored, so late-arriving ships cannot rewind it). This is
    {e full-state-transfer} semantics: the durable watermark advances
    (and its row is created) alongside the believed one — use it for
    replica installs, remaster lag sync, failover promotion and
    recovery resync, where the replica really receives the state. *)

val durable : t -> part:int -> node:int -> int
(** Ground truth behind [applied]: the log index the replica's storage
    actually holds (0 if never seeded or installed). Always ≤ the
    believed watermark except transiently; the divergence audit flags
    any live replica whose durable watermark trails the log while the
    believed one claims it is caught up — the stale-stream corruption
    signature (docs/MEMBERSHIP.md). *)

val seed_replica : t -> part:int -> node:int -> unit
(** Create the durable row (at 0) for a replica that exists from the
    start — the cluster seeds every initial holder at creation. *)

val ack_stream : t -> part:int -> node:int -> upto:int -> stale:bool -> unit
(** Apply one {e incremental} stream delivery (per-commit log ship or
    legacy-session message). [stale] says the stream's session predates
    the destination's current incarnation; the caller refuses such a
    delivery ({!Cluster.refuse_stale}) and gets here with it only under
    the [Cluster.reintroduce_stale_sessions] test hook. A delivery always advances the believed
    watermark; the durable watermark advances only when the stream is
    fresh {e and} a durable row exists — an incremental stream cannot
    conjure up the prefix it extends. A stale delivery is thus exactly
    the hazard: bookkeeping says caught-up, storage says nothing. *)

val forget_applied : t -> part:int -> node:int -> unit
(** Drop both watermarks — the node no longer holds this replica. *)
