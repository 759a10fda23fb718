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
    partitions, op order preserved within a group — the order in which
    an attempt executes them. Built by scanning the operation array, no
    table. *)

val record_op : Lion_store.Kvstore.session -> Lion_workload.Txn.op -> unit
(** Record one operation in an OCC session: [Kvstore.write] for a
    write, [Kvstore.read] for a read. *)

val retry_backoff : Lion_store.Cluster.t -> attempts:int -> float
(** The delay before retry [attempts + 1] of [Exec] and [Epoch]: 50
    µs·2^min(8, attempts) plus one RNG draw below 50 µs, at most 2 ms. *)

val acquire_worker :
  Lion_store.Cluster.t ->
  node:int ->
  Lion_trace.Trace.ctx option ->
  on_fail:(unit -> unit) ->
  (Lion_sim.Server.lease -> unit) ->
  unit
(** A worker on [node] for an attempt of [Exec] or [Epoch], whose phase
    clock runs scheduling until the grant. When the attempt is traced,
    a grant that cannot be immediate gets a scheduling-phase
    [worker-wait] span, noted "shed" if admission refuses it. *)

val route_most_primaries : Lion_store.Cluster.t -> Lion_workload.Txn.t -> int
(** The node holding the most of the transaction's primary partitions
    (lowest id on ties) — the standard router. *)

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

    Each attempt acquires (and always releases) a coordinator worker;
    the bounded worker queue may shed the admission request
    (docs/OVERLOAD.md; never happens with the default unbounded
    queue), which fails the attempt. When the grant cannot be
    immediate, the wait is a scheduling-phase [worker-wait] span
    ({!acquire_worker}). An enforced deadline (absolute simulated
    time) is propagated into every RPC the attempt issues: once past
    it, lost RPCs stop retransmitting. Each attempt is one mutable record advanced by
    engine events, not a chain of per-hop closures.

    When the cluster carries a history sink ([Cluster.history]), each
    attempt that got a worker records one {!Lion_store.History} event —
    observed read versions, installed write versions on commit, and the
    outcome (committed / aborted / indeterminate when a 2PC prepare
    round exhausted its retries), labelled with the attempt's ordinal.

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
    group-commit-wait span; the trace closes at commit visibility.

    The recorded phases come from one clock per transaction, switched
    where those spans open and close, so they equal a traced
    transaction's critical path, aborted attempts and worker waits
    included. *)
