(** Shared standard (non-batch) transaction execution machinery.

    Implements the three-phase flow of §II-A on the simulated cluster:
    the coordinator worker is held for the whole transaction; each
    partition group executes locally when its primary is local,
    otherwise via a blocking round trip to the primary's node; a
    transaction whose every operation ended up local commits without
    the prepare phase, while a distributed one runs full 2PC with
    prepare-log replication. OCC validation happens at the commit
    point; conflicts abort and the caller retries.

    Two behavioural knobs cover the migration-flavoured baselines and
    Lion's standard mode:
    - [remaster_secondary]: a locally-held secondary is promoted (the
      partition blocks for the remaster delay) so the operation can
      execute locally — Lion's conversion step;
    - [migrate_on_access]: every remote partition's mastership is
      aggressively pulled to the coordinator before executing — Leap. *)

type flavor = {
  remaster_secondary : bool;
  migrate_on_access : bool;
  unified_commit : bool;
      (** commit distributed transactions in a single round that engages
          every replica of every participant at once (the 2PC+consensus
          unification of the related work, §VII): one round trip instead
          of prepare+commit, at the price of fanning messages to all
          secondaries and waiting for their (majority) votes *)
  read_at_secondary : bool;
      (** serve an all-read partition group from a locally-held
          secondary without promoting it (bounded-staleness reads) — an
          extension beyond the paper, where only primaries serve
          operations; see the [abl_read_secondary] benchmark *)
}

val plain_2pc : flavor
val leap_flavor : flavor
val lion_flavor : flavor
val unified_flavor : flavor

val groups_of : Lion_workload.Txn.t -> (int * Lion_workload.Txn.op list) list
(** Operations grouped by partition, first-appearance order of
    partitions, op order preserved within a group. *)

val route_most_primaries : Lion_store.Cluster.t -> Lion_workload.Txn.t -> int
(** The node holding the most of the transaction's primary partitions
    (lowest id on ties) — the standard router. *)

type result = {
  committed : bool;
  single_node : bool;  (** every operation executed on the coordinator *)
  remastered : bool;  (** at least one remaster/migration was used *)
  phases : (Lion_sim.Metrics.phase * float) list;
}

val attempt :
  ?ctx:Lion_trace.Trace.ctx ->
  ?attempt_no:int ->
  ?deadline:float ->
  Lion_store.Cluster.t ->
  coordinator:int ->
  txn:Lion_workload.Txn.t ->
  flavor:flavor ->
  k:(result -> unit) ->
  unit
(** One execution attempt. Acquires (and always releases) a coordinator
    worker; [k] fires at worker release — or immediately with a failed
    result if the bounded worker queue sheds the admission request
    (docs/OVERLOAD.md; never happens with the default unbounded queue).
    When the grant cannot be immediate, the wait is traced as a
    "queue"-phase [worker-wait] span. [deadline] (absolute simulated
    time) is propagated into every RPC the attempt issues: once past
    it, lost RPCs stop retransmitting. On commit, the group-commit
    visibility delay is {e not} included here — see [run]. [ctx] (one
    attempt's span of a traced transaction) nests setup, per-group
    execution, remaster transfers and the 2PC rounds under it.

    When the cluster carries a history sink ([Cluster.history]), the
    attempt records one {!Lion_store.History} event — observed read
    versions, installed write versions on commit, and the outcome
    (committed / aborted / indeterminate when a 2PC prepare round
    exhausted its retries). [attempt_no] (default 1) labels the event
    with the retry ordinal. *)

val run :
  Lion_store.Cluster.t ->
  route:(Lion_workload.Txn.t -> int) ->
  flavor:flavor ->
  Lion_workload.Txn.t ->
  on_done:(unit -> unit) ->
  unit
(** Attempt with retry-on-abort (exponential-ish backoff, capped),
    recording aborts and the final commit in the cluster metrics. The
    commit is recorded at the next group-commit epoch boundary with the
    full latency since first submission; [on_done] fires at coordinator
    worker release so the closed loop stays worker-bound.

    When [Config.deadline] is set, a commit later than [after] is
    recorded as a deadline miss — committed for throughput, discounted
    from goodput. If the deadline is also enforced, a transaction that
    aborts after [start + after] is given up rather than retried
    (recorded as a deadline give-up; [on_done] still fires), and the
    deadline propagates into every RPC so past-deadline
    retransmissions stop. Without a deadline behaviour is unchanged:
    retry forever.

    When the cluster carries a tracer ([Cluster.tracer]), each
    transaction is offered to it: sampled ones get a root span, one
    child span per attempt (aborted attempts annotated), and a
    group-commit-wait span; the trace closes at commit visibility. *)
