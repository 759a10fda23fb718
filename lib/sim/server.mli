(** A capacity-[c] FIFO service station (a node's worker pool).

    Two usage styles:
    - [submit]: occupy a unit for a fixed service duration (remote
      operation handling, short jobs);
    - [acquire]/[release]: hold a unit across an arbitrary span — a
      transaction coordinator keeps its worker busy through blocking
      network round trips, which is exactly what makes distributed
      transactions slow. Busy time accrues for the whole hold.

    Queueing at saturated servers is what makes bottleneck nodes
    (Star's super node, Calvin's lock manager) emerge in the simulation
    rather than being hard-coded.

    {b Overload controls} (all off by default — the default station is
    the unbounded FIFO it always was): a [queue_cap] bounds the normal
    wait queue, a {!shed_policy} decides who is turned away when it
    saturates, [High]-priority acquires (remaster / replication control
    traffic) jump the user queue and are never shed by policy, and
    [kill] fail-fasts everything parked behind a crashed node. See
    docs/OVERLOAD.md. *)

type t
type lease

type shed_policy =
  | Reject_newest
      (** a full queue turns the {e arriving} request away — the
          standing queue keeps its FIFO promise *)
  | Codel of { target : float; interval : float }
      (** CoDel-style target-delay drop: once the head's queue delay
          has stayed above [target] µs for a full [interval] µs, heads
          are shed at dequeue until the sojourn falls back under the
          target. Bounds queue {e delay} rather than queue length; the
          [queue_cap] still applies as an overflow backstop. *)

type prio =
  | Normal  (** user transactions *)
  | High
      (** control traffic (remaster, replication repair): granted
          before any [Normal] waiter, never shed by policy or cap *)

val create :
  ?queue_cap:int ->
  ?policy:shed_policy ->
  ?on_shed:(unit -> unit) ->
  Engine.t ->
  capacity:int ->
  t
(** [queue_cap] 0 (default) = unbounded; [policy] defaults to
    [Reject_newest] (irrelevant while unbounded); [on_shed] is invoked
    once per shed request in addition to the request's own [on_shed]
    callback — the station keeps no count of its own; the cluster
    points it at [Metrics.Sheds]. *)

val capacity : t -> int

val acquire : t -> ?prio:prio -> ?on_shed:(unit -> unit) -> (lease -> unit) -> unit
(** Request a unit; the callback fires (FIFO within its priority class)
    once one is free and holds it until [release]. When admission
    control sheds the request — full bounded queue, CoDel delay bound,
    or a dead station — [on_shed] fires instead (default: the request
    is silently dropped). *)

val release : t -> lease -> unit
(** Free the unit. Raises [Invalid_argument] on double release. *)

val submit : t -> ?prio:prio -> ?on_shed:(unit -> unit) -> work:float -> (unit -> unit) -> unit
(** [acquire], hold for [work] µs, [release], then the callback. *)

val kill : t -> unit
(** Crash the station: every waiter (both priority classes) is shed
    immediately — queued work fails fast instead of executing on a dead
    node — and subsequent acquires shed on arrival until [revive].
    In-flight leases still release (their completions were already
    scheduled) but grant nothing. *)

val revive : t -> unit

val alive : t -> bool

val busy : t -> int
(** Units currently held. *)

val queue_length : t -> int
(** Acquire requests waiting for a free unit (both priority classes). *)

val busy_time : t -> float
(** Held µs accumulated since creation, charged when each lease is
    released; includes time leases spend blocked on the network. A
    reader that wants a window differences two readings. *)

val completed : t -> int
(** Leases released since creation. *)

val queue_wait : t -> float
(** Total µs granted requests spent waiting in the queue since
    creation. *)

val max_queue : t -> int
(** High-water mark of the wait queue length since creation. *)
