(** Audit harness: workload × protocol × nemesis → recorded history →
    checker + divergence audit + liveness audit.

    A run is one {!Lion_harness.Runner.run} in its quiesce shape:
    clients, the protocol tick and the samplers stop issuing work at
    the horizon, so after [drain] the event queue {e empties} —
    in-flight retries resolve, elections finish, log ships and
    anti-entropy repairs land. The checker and the replica-divergence
    audit run at that true quiescence; the liveness audit
    ({!Liveness.audit}) checks the run actually reached it. *)

type outcome = {
  history : Lion_store.History.t;
  check : Checker.report;
  divergence : Divergence.report;
  liveness : Liveness.report;
  submitted : int;
  completed : int;
  commits : int;
  aborts : int;
  min_availability : float;
      (** lowest 100 ms-sampled {!Lion_store.Cluster.availability}
          before the horizon *)
  resyncs : int;  (** anti-entropy repairs that completed *)
  stale_rejections : int;
      (** stale-session stream deliveries rejected by tagging
          ([Metrics.Stale_acks]; 0 unless
          [Config.session_tagging]) *)
  replica_purges : int;
      (** stale secondaries purged at node recovery
          ([Metrics.Replica_purges]) *)
  exhausted : bool;
      (** the drain stopped on [max_events] instead of emptying the
          queue — also reported as a liveness finding, never a silent
          truncation *)
  pending_events : int;  (** events still queued when the run stopped *)
  final_time : float;  (** simulated time when the queue drained (µs) *)
}

val passed : outcome -> bool
(** Serializable history and no replica divergence — the {e safety}
    verdict. A wedged run can pass this on a short, clean history. *)

val healthy : outcome -> bool
(** [passed] and the liveness audit is clean: the run not only did
    nothing wrong, it finished everything it admitted. *)

val pp_outcome : Format.formatter -> outcome -> unit

val run :
  ?seed:int ->
  clients:int ->
  duration:float ->
  ?nemesis_at:float ->
  ?max_events:int ->
  ?actions:(float * (Lion_store.Cluster.t -> unit)) list ->
  ?observe:(Lion_store.Cluster.t -> unit) ->
  cfg:Lion_store.Config.t ->
  make:(Lion_store.Cluster.t -> Lion_protocols.Proto.t) ->
  gen:(time:float -> Lion_workload.Txn.t) ->
  nemesis:Nemesis.t ->
  unit ->
  outcome
(** Run [clients] closed-loop clients (0 picks the runner's
    per-protocol count) for [duration] simulated seconds, with the
    nemesis' fault plan anchored [nemesis_at] seconds in (default 1),
    then drain to quiescence (bounded by [max_events], default
    {!Lion_harness.Runner.drain_budget}) and audit. The nemesis plan
    is appended to any plan already in [cfg]. [actions] schedules
    membership operations (join/decommission) at absolute simulated
    times — they are planner decisions, not fault-plan specs. The
    liveness audit's [Slow_quiesce] bound is the later of the horizon
    and the plan's last window, plus 10 simulated seconds. [observe]
    runs on the cluster after all audits, before it is dropped — the
    fuzzer's hook for snapshotting metrics and beacons into its
    coverage signal. Deterministic in ([seed], [cfg], nemesis,
    [actions]). *)
