(** Experiment metrics: commits, aborts, latency, phase breakdown.

    One recorder per experiment run. Commit events also record whether
    the transaction ran as a single-node transaction, whether it used
    remastering, and how its latency divides into phases — everything
    Figs. 8, 10, 12 and 14 need. *)

type phase =
  | Execution  (** read/write processing, incl. remote reads *)
  | Prepare  (** 2PC prepare round *)
  | Commit  (** commit round / group-commit wait *)
  | Remaster  (** waiting on leader transfers *)
  | Scheduling  (** deterministic lock-manager / sequencer wait *)
  | Replication  (** replica synchronisation *)

val phase_name : phase -> string
val all_phases : phase list

type t

val create : ?seed:int -> Engine.t -> t

(** One committed transaction's time per phase, µs. An all-float
    record, so its fields are stored unboxed and can be filled in
    place. *)
type phase_times = {
  mutable execution : float;
  mutable prepare : float;
  mutable commit : float;
  mutable remaster : float;
  mutable scheduling : float;
  mutable replication : float;
}

val phase_times :
  ?execution:float ->
  ?prepare:float ->
  ?commit:float ->
  ?remaster:float ->
  ?scheduling:float ->
  ?replication:float ->
  unit ->
  phase_times
(** A fresh record; every phase not given is 0. *)

val record_commit :
  ?late:bool ->
  t ->
  latency:float ->
  single_node:bool ->
  remastered:bool ->
  phases:phase_times ->
  unit
(** Record a committed transaction. [latency] in µs from first submit
    (including retries) to commit. [late] (default false) marks a
    commit that landed past its client deadline: it still counts in
    throughput and the latency distribution but is excluded from the
    goodput series. *)

val record_abort : t -> unit
(** One abort-and-retry occurrence (the eventual commit is still
    recorded via [record_commit]). *)

val record_timeout : t -> unit
(** An RPC (or partition wait) gave up after exhausting its retries. *)

val record_retry : t -> unit
(** An RPC attempt timed out and was retried with backoff. *)

val record_drop : t -> unit
(** The fault layer killed a message (drop spec, partition, or dead
    endpoint). *)

val record_shed : t -> unit
(** Admission control turned a request away (bounded queue overflow,
    CoDel delay bound, or a dead node's drained queue). *)

val record_breaker_reject : t -> unit
(** A per-destination circuit breaker refused an RPC while open. *)

val record_breaker_open : t -> unit
(** A circuit breaker tripped open. *)

val record_breaker_half_open : t -> unit
(** An open breaker's cooldown elapsed and it moved to [Half_open],
    admitting one probe. A breaker pinned open by a persistent fault
    shows opens and half-opens climbing in lockstep. *)

val record_budget_denial : t -> unit
(** A retransmission was abandoned because the retry budget was dry. *)

val record_deadline_giveup : t -> unit
(** A transaction past its deadline was shed instead of retried. *)

val record_deadline_miss : t -> unit
(** A transaction committed, but only after its deadline — counted out
    of goodput. *)

val record_stale_ack : t -> unit
(** A replication/remaster stream message from a stale session —
    initiated before its destination left and rejoined the membership —
    was rejected instead of applied (docs/MEMBERSHIP.md). Only counted
    while [Config.session_tagging] is on. *)

val record_replica_purge : t -> unit
(** A rejoining node held a secondary whose partition was remastered
    away while it was down; the stale copy was purged at recovery. *)

val record_remaster_begin : t -> unit
(** A leader transfer was admitted (cooldown passed, no transfer in
    flight for the partition). Increments both the lifetime begin
    counter and the in-flight gauge. *)

val record_remaster_end : t -> unit
(** The matching end for a [record_remaster_begin] — completion, stale
    refusal or cancellation. Every begin must be paired with exactly
    one end; at quiescence the gauge must read 0, which the liveness
    auditor asserts (docs/FUZZING.md). *)

val record_link_msg : t -> cross:bool -> bytes:int -> unit
(** Classify one sent message by link class under a region topology:
    [cross] marks a cross-region (WAN) hop, otherwise the hop is
    intra-region (LAN). Only called by [Network.send] when a topology
    is installed — region-free runs never touch these counters
    (docs/GEO.md). *)

val beacon : t -> string -> unit
(** Light a named code-path beacon — a control-flow waypoint such as an
    election, a phantom purge or a cancelled remaster. Beacons are pure
    bookkeeping (no engine events, no RNG), so recording one never
    perturbs a run; the fault-schedule fuzzer uses the set of lit
    beacons as its coverage signal. *)

val beacons : t -> (string * int) list
(** All beacons lit since [create] (or the last [reset_window]),
    sorted by name for deterministic output. *)

val timeouts : t -> int
val retries : t -> int
val drops : t -> int
val sheds : t -> int
val breaker_rejects : t -> int
val breaker_opens : t -> int
val budget_denials : t -> int
val deadline_giveups : t -> int
val deadline_misses : t -> int
val breaker_half_opens : t -> int
val stale_ack_rejections : t -> int
val replica_purges : t -> int
val remaster_begins : t -> int

val wan_messages : t -> int
(** Cross-region messages sent since [create] / [reset_window]. *)

val wan_bytes : t -> int
(** Bytes carried by cross-region messages. *)

val lan_messages : t -> int
(** Intra-region messages sent under a region topology. Zero (like all
    four link counters) when the run is region-free. *)

val lan_bytes : t -> int
(** Bytes carried by intra-region messages. *)

val remasters_inflight : t -> int
(** Leader transfers currently in flight (begins minus ends). Unlike
    the counters this is live state, not a window total: it survives
    [reset_window] so a transfer spanning the boundary still reads
    correctly. *)

val schedule_clamps : t -> int
(** Past-dated schedules the engine clamped to [now] since [create] —
    each one is a scheduling bug somewhere upstream (negative delay, or
    an absolute time computed from a stale clock). Surfaced so
    experiment summaries and tests can assert the count. *)

val note_availability : t -> frac:float -> unit
(** Record a point-in-time availability sample (0..1) into the
    per-second series — the runner samples once per simulated second. *)

val availability_series : t -> float array
(** Availability samples bucketed per simulated second. *)

val commits : t -> int
val aborts : t -> int
val single_node_commits : t -> int
val remastered_commits : t -> int

val throughput : t -> duration:float -> float
(** Committed txns per simulated second over [duration] µs. *)

val throughput_series : t -> float array
(** Commits bucketed per simulated second. *)

val goodput_series : t -> float array
(** In-deadline commits bucketed per simulated second — equals
    [throughput_series] while no transaction deadline is configured. *)

val latency_percentile : t -> float -> float
val mean_latency : t -> float

val phase_fraction : t -> phase -> float
(** Fraction of total committed-transaction time spent in a phase. *)

val reset_window : t -> unit
(** Clear counters and latency (not the per-second series) so a run can
    exclude its warm-up from reported numbers. *)
