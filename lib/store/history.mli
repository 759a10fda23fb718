(** Transaction history recording for the consistency auditor.

    A history sink collects one {!event} per transaction {e attempt}:
    the read set with the versions the attempt observed, the write set
    with the versions it installed (empty unless the attempt actually
    installed its writes), the outcome, and the engine time of the
    record. Record order ([seq]) is the logical commit order — events
    are appended at the simulated instant the attempt's fate is
    decided, and the simulator executes instants in global time order.

    Recording follows the tracing contract (see {!Lion_trace.Trace}):
    the sink is optional everywhere ([Cluster.history]), a [None] sink
    makes every instrumentation point a constant-time no-op that
    schedules nothing, and an installed sink only {e observes} — it
    never changes a simulation outcome. The offline checker
    ({!Lion_audit.Checker}) replays the version-order dependency graph
    from these events. *)

type outcome =
  | Committed  (** writes installed, visible at the recorded instant *)
  | Aborted  (** attempt gave up before installing anything *)
  | Indeterminate
      (** the coordinator lost contact mid-protocol (e.g. a 2PC
          prepare round that exhausted its retries) and presumed
          abort without hearing every participant *)

val outcome_name : outcome -> string

type event = {
  txn_id : int;
  attempt : int;  (** 1-based attempt number within the transaction *)
  reads : (Kvstore.key * int) list;  (** key, observed version *)
  writes : (Kvstore.key * int) list;  (** key, installed version *)
  outcome : outcome;
  ts : float;  (** engine time (µs) the outcome was decided *)
  seq : int;  (** record order — the logical commit timestamp *)
}

type t

val create : unit -> t

val record :
  t ->
  txn_id:int ->
  attempt:int ->
  reads:(Kvstore.key * int) list ->
  writes:(Kvstore.key * int) list ->
  outcome:outcome ->
  ts:float ->
  unit

val record_session :
  t ->
  store:Kvstore.t ->
  Kvstore.session ->
  txn_id:int ->
  attempt:int ->
  outcome:outcome ->
  ts:float ->
  unit
(** [record] one attempt of a session run against [store]: the
    versions the session observed and, on commit, its write set (sorted,
    each key once) with the versions [store] now holds — the ones the
    commit installed. *)

val size : t -> int

val events : t -> event list
(** All recorded events in [seq] order. *)

val shadow : t -> Kvstore.t
(** Private version table for analytic (batch) engines that never
    touch the shared store: the batch recorder applies committed write
    sets here, in epoch commit order, to synthesise the versions a
    real execution would have observed and installed. *)

val event :
  txn_id:int ->
  ?attempt:int ->
  ?reads:(Kvstore.key * int) list ->
  ?writes:(Kvstore.key * int) list ->
  outcome:outcome ->
  ?ts:float ->
  seq:int ->
  unit ->
  event
(** Convenience constructor for hand-built histories in tests. *)

val pp_event : Format.formatter -> event -> unit
