(** Epoch-based batch execution engine (§IV-D, §V).

    Batch protocols buffer routed transactions; when the buffer reaches
    the batch size (default 10 k) — or the drain hook fires — an epoch
    runs. Epoch processing is analytic: the protocol's [process]
    function reports per-transaction verdicts plus the resources the
    epoch consumed (per-node worker-µs, serialized scheduling time,
    non-overlapped barrier time), and the engine derives the epoch
    makespan

      duration = serial + max_n(busy_n / workers_n) + barrier + commit

    so bottlenecks (Star's super node, Calvin's lock manager) show up as
    the max-term or the serial term. Committed transactions are recorded
    at epoch end with latency measured from enqueue (re-queued aborted
    transactions span multiple epochs, producing the tail latencies of
    Fig. 14); their clients resubmit immediately, keeping the system
    saturated as in the paper's benchmarking harness. A transaction's
    phases (Fig. 14b) are the stages of every epoch it sat in: queue
    wait and serial term [Scheduling], max-term [Execution], barrier
    [Remaster], epoch commit [Commit]; they sum to its latency.

    An idle engine opens its next epoch through one deferred (delay-0)
    start event: the first submission queues it and marks the engine
    running, so the same instant's later submissions queue none and
    join that epoch. Under the engine's FIFO
    ties the start fires after every event already queued for the
    instant (ROADMAP item 10 is the plan to stop depending on that). *)

type verdict = { committed : bool; single_node : bool; remastered : bool }

val verdict : committed:bool -> single_node:bool -> remastered:bool -> verdict
(** The verdict with these flags: one of eight shared immutable
    records, so a [process] that builds its verdicts with it allocates
    no record per transaction. *)

type epoch_result = {
  verdicts : verdict array;  (** one per transaction, in order *)
  node_busy : float array;  (** worker-µs consumed per node *)
  serial_time : float;  (** sequencer / lock-manager serial span *)
  barrier_time : float;  (** non-overlapped pauses (migrations, remasters) *)
}

val conflict_verdicts :
  ?include_raw:bool ->
  ?window:int ->
  ?footprint:(int -> Lion_store.Kvstore.key -> bool) ->
  ?granule:(Lion_store.Kvstore.key -> int) ->
  Lion_workload.Txn.t array ->
  bool array
(** First-reserver-wins conflict analysis within a batch: transaction i
    is marked [false] (must abort) if it writes a granule already
    write-reserved by an earlier transaction, or — when [include_raw]
    (Aria's read-after-write rule) — reads one. [granule] maps keys to
    the conflict unit (identity for key-level OCC, coarser for Lotus'
    granule locks; default the key itself); granules are non-negative,
    as keys are. The reserved granules live in an open-addressing table
    of one-word cells ([granule + 1], 0 free) that a new window clears
    from its list of filled cells. Each written granule is probed once:
    the doom check records where its probe ended and the reservation
    resumes from there. Reserving allocates nothing per key, and with
    neither [granule] nor [footprint] the pass calls no closure per
    operation.

    [window] (default: the whole batch) bounds the concurrency scope:
    reservations reset every [window] transactions, modelling that a
    10k-transaction epoch executes as a pipeline of worker-sized waves
    in which only overlapping executions can actually conflict — later
    waves read the earlier waves' committed versions. Epoch-long lock
    holders (Lotus) keep the default.

    [footprint i] selects which of transaction [i]'s keys participate
    (default: all of them) — Lotus selects only the keys on remote
    partitions, since home-partition operations serialize on the
    partition's executor and never abort. It is called once per
    transaction, before that transaction's keys are scanned. *)

val create :
  Lion_store.Cluster.t ->
  name:string ->
  process:(Lion_workload.Txn.t array -> epoch_result) ->
  ?tick:(unit -> unit) ->
  ?max_retries:int ->
  ?stage_labels:string * string ->
  unit ->
  Proto.t
(** [max_retries] (default 100) bounds re-queues per transaction; a
    transaction exceeding it is force-committed to keep the closed loop
    live (real systems eventually serialize it).

    When the cluster carries a tracer ([Cluster.tracer]), sampled
    transactions get retroactive stage spans at each epoch end —
    queue-wait, sequencing, execution, barrier, epoch-commit — tiling
    the makespan, with re-queues annotated as aborts; each span carries
    its stage's phase, so the critical path is the recorded phases.
    [stage_labels] (default [("sequencing", "barrier")]) names the
    protocol-specific serial and barrier stages, e.g. Calvin's lock
    scheduler or Star's phase-switch remaster. *)
