(** Experiment metrics: counters, latency, phase breakdown and the
    per-second series.

    One recorder per experiment run. Every count the run makes is a
    {!counter}: each declared once, with a printed {!name} and its fuzz
    coverage {!signal}, bumped with {!incr} or {!add} and read with
    {!count}. Code-path waypoints (an election, a phantom purge, a
    cancelled remaster) are counters too. One {!reset_window} zeroes
    them all, so every count covers the measured window; a run's result
    keeps one {!snapshot} of the table, taken when the run ends. Commit
    events also record whether the transaction ran as a single-node
    transaction, whether it used remastering, and how its latency
    divides into phases — everything Figs. 8, 10, 12 and 14 need. *)

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

(** The run's counters. Each counts events over the measured window:
    since {!create} or the last {!reset_window}. *)
type counter =
  | Commits  (** committed transactions *)
  | Single_node_commits  (** commits that ran on one node *)
  | Remastered_commits  (** commits that used a leader transfer *)
  | Aborts
      (** abort-and-retry occurrences; the eventual commit is still
          recorded by {!record_commit} *)
  | Timeouts  (** RPCs (or partition waits) that exhausted their retries *)
  | Retries  (** RPC attempts that timed out and were retried with backoff *)
  | Drops
      (** messages the fault layer killed (drop spec, partition, or dead
          endpoint) *)
  | Sheds
      (** requests admission control turned away (bounded queue
          overflow, CoDel delay bound, or a dead node's drained queue) *)
  | Breaker_rejects  (** RPCs an open circuit breaker refused *)
  | Breaker_opens  (** circuit-breaker trips *)
  | Breaker_half_opens
      (** open breakers whose cooldown elapsed, admitting one probe; a
          breaker pinned open by a persistent fault shows opens and
          half-opens climbing in lockstep *)
  | Budget_denials  (** retransmissions abandoned for a dry retry budget *)
  | Deadline_giveups  (** transactions past their deadline shed instead of retried *)
  | Deadline_misses
      (** transactions committed after their deadline, counted out of
          goodput (by {!record_commit} [~late:true]) *)
  | Stale_acks
      (** replication/remaster stream messages from a stale session —
          initiated before their destination left and rejoined — rejected
          instead of applied (docs/MEMBERSHIP.md); only counted while
          [Config.session_tagging] is on *)
  | Replica_purges
      (** secondaries purged at recovery because their partition was
          remastered away while the node was down *)
  | Remasters  (** leader transfers admitted (cooldown passed, none in flight) *)
  | Wan_messages
      (** cross-region messages; this and the other three link counters
          are only bumped by [Network.send] under a region topology, so a
          region-free run leaves them at 0 (docs/GEO.md) *)
  | Wan_bytes  (** bytes carried by cross-region messages *)
  | Lan_messages  (** intra-region messages under a region topology *)
  | Lan_bytes  (** bytes carried by intra-region messages *)
  | Remaster_complete  (** leader transfers that completed *)
  | Replica_adds  (** secondary installs that completed *)
  | Batch_promotions  (** primaries a batch epoch moved (Lion batch mode) *)
  (* Code-path waypoints: each counts the times a run passed it. *)
  | Remaster_stale_refuse  (** handover refused: the target rejoined *)
  | Remaster_abandon  (** transfer abandoned: target dead or lag ship lost *)
  | Remaster_cancel  (** in-flight transfer cancelled by the target's crash *)
  | Parked_promote
  | Partition_parked  (** no live replica left to elect *)
  | Election_promote
  | Phantom_purge
  | Rejoin_purge
  | Orphan_resync
  | Node_join
  | Node_decommission  (** a member started draining *)
  | Node_crash
  | Node_recover
  | Resync_stale  (** anti-entropy repair dropped as stale *)
  | Resync_apply  (** anti-entropy repair applied *)
  | Epoch_round_failed  (** an epoch's replication round failed *)

val all : counter list
(** Every counter, each once. *)

val name : counter -> string
(** The counter's printed name, e.g. ["breaker-rejects"]; distinct per
    counter. *)

val signal : counter -> string option
(** The fuzzer's coverage signal for the counter, lit when its count is
    positive: its {!name} after ["m:"] (a watched count, such as
    [m:timeouts]) or ["b:"] (a code-path waypoint, such as
    [b:node-crash]), or none. Declared once per counter next to its
    name; corpus files and goldens hold these strings. *)

val incr : t -> counter -> unit

val add : t -> counter -> int -> unit
(** [add t c n] adds [n] to [c]; [incr t c] is [add t c 1]. *)

val count : t -> counter -> int
(** The counter's total over the measured window. *)

type snapshot
(** Every counter's value at one instant; immutable. *)

val snapshot : t -> snapshot

val get : snapshot -> counter -> int
(** The counter's value when the snapshot was taken. *)

val completed_remasters : snapshot -> int
(** Leader transfers that completed, by either path: [Remaster_complete]
    plus [Batch_promotions]. *)

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
(** Record a committed transaction: [Commits], and [Single_node_commits]
    / [Remastered_commits] when those flags are set. [latency] in µs
    from first submit (including retries) to commit. [late] (default
    false) marks a commit that landed past its client deadline: it
    still counts in throughput and the latency distribution, counts a
    [Deadline_misses], and is excluded from the goodput series. *)

val defer_commit :
  t ->
  delay:float ->
  late:bool ->
  latency:float ->
  single_node:bool ->
  remastered:bool ->
  phases:phase_times ->
  root:Lion_trace.Trace.ctx option ->
  span:Lion_trace.Trace.ctx option ->
  unit
(** Record a commit [delay] µs from now, when group commit makes it
    visible: then [span] (its wait) is closed, the commit is recorded
    as {!record_commit} would, and [root] (its trace) is finished. The
    commit and its phases are copied at the call, so the caller may
    reuse [phases].

    Commits are batched by exact due time (the engine key of
    [now +. delay]): the first commit due at a time queues one engine
    event, which takes that commit's place in the engine's (time, FIFO)
    order and replays every commit due then in arrival order. A
    {!reset_window} before then keeps them pending. *)

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
(** Zero every counter, the phase totals and latency (not
    the per-second series) so a run can exclude its warm-up from
    reported numbers. Commits deferred by {!defer_commit} and not yet
    visible stay pending and count in the new window. *)
