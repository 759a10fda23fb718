(** Experiment runner: builds a cluster, drives a protocol over a
    workload for a span of simulated time, and collects the series and
    summary statistics every figure needs. The audit harness
    ([Lion_audit.Drive]) and {!Elastic} run through it too.

    The default drive is closed-loop: a small client pool (a multiple
    of the cluster's worker count for standard protocols, one client
    per batch slot for batch protocols, as in the paper's benchmarking
    setup) where each client submits its next transaction when the
    previous finishes. [arrival] switches to open-loop driving, where
    transactions arrive at a configured offered rate regardless of
    completions — the mode that can push the system past saturation
    (docs/OVERLOAD.md, EXPERIMENTS.md).

    A run stops in one of two shapes ([stop]). The benchmark shape
    stops the clock at the horizon and abandons whatever is still
    queued after [drain]. The quiesce shape stops clients, the tick and
    every sampler from issuing at the horizon, then runs everything in
    flight to completion, so the queue empties — what an audit of the
    final state needs.

    The warm-up ends with {!Lion_sim.Metrics.reset_window}, so every
    count in a {!result} covers the measured window only, and all of
    them come from one snapshot of the counter table taken after the
    drain ({!count}). *)

type arrival =
  | Closed  (** closed loop: [clients] concurrent submitters *)
  | Poisson of float
      (** open loop, Poisson arrivals at this rate (txns per simulated
          second); [clients] is ignored *)
  | Uniform of (float -> float)
      (** open loop, deterministic arrivals: the gap after an arrival at
          simulated second [t] is [1 / rate t] ([Fun.const r] for a
          constant rate); none if [rate 0.] is not positive *)

type stop =
  | Forever  (** stop the clock at the horizon; a tick due exactly then runs *)
  | Quiesce of int
      (** stop issuing at the horizon (a tick due exactly then does not
          run), then [drain] and {!Lion_sim.Engine.run_all} within this
          event budget *)

type config = {
  clients : int;  (** closed-loop concurrency; 0 = auto per protocol *)
  warmup : float;
      (** simulated seconds excluded from summary stats (a [Quiesce] run
          without warmup also counts events at t=0) *)
  duration : float;  (** measured simulated seconds *)
  tick_every : float;  (** planner/monitor tick period, seconds *)
  arrival : arrival;  (** load drive; [Closed] is the benchmark default *)
  stop : stop;  (** [Forever] is the benchmark default *)
}

val quick : config
(** warmup 2 s, duration 6 s, tick 1 s, closed loop, stopping the clock
    at the horizon — the benchmark default. *)

val drain_budget : int
(** The usual [Quiesce] budget (50 M events): hitting it means a
    runaway event loop. *)

val every :
  Lion_sim.Engine.t -> first:float -> period:float -> until:float -> (unit -> unit) -> unit
(** [every engine ~first ~period ~until f] runs [f] [first] µs from now
    and every [period] µs after that while the clock is below [until],
    checked as each event fires (so a last no-op event runs at the first
    time at or past [until]). The protocol tick and the harnesses'
    samplers run on it. *)

(** A run's results. Every count is over the measured window, read
    from [counters], one snapshot of the run's {!Lion_sim.Metrics}
    table taken when the run ends; {!count} reads any counter from it.
    The integer fields below copy a counter (or, for [remasters], two)
    only because the [bench/e2e] benchmark reads them by name. *)
type result = {
  throughput : float;  (** commits per measured second *)
  goodput : float;
      (** commits that beat [Config.deadline], per measured second
          (= [throughput] when no deadline is configured) *)
  offered : float;
      (** arrivals per measured second under open-loop driving; equals
          [throughput] under closed loop, where load tracks completion *)
  commits : int;  (** [Commits] *)
  aborts : int;  (** [Aborts] *)
  p50 : float;  (** latency percentiles over the measured window, µs *)
  p75 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  mean_latency : float;
  single_node_ratio : float;  (** fraction of commits that ran single-node *)
  remaster_ratio : float;
  throughput_series : float array;  (** commits per second, incl. warmup *)
  goodput_series : float array;
      (** in-deadline commits per second, incl. warmup — equals
          [throughput_series] when no transaction deadline is set *)
  bytes_series : float array;  (** network bytes per second, incl. warmup *)
  bytes_per_txn : float;  (** measured-window bytes / commits *)
  phase_fractions : (Lion_sim.Metrics.phase * float) list;
  remasters : int;
      (** leader transfers completed
          ({!Lion_sim.Metrics.completed_remasters}) *)
  replica_adds : int;  (** [Replica_adds]: secondary installs completed *)
  timeouts : int;  (** [Timeouts]: RPCs that exhausted their retries *)
  retries : int;  (** [Retries]: RPC retransmissions after a loss *)
  sheds : int;
      (** [Sheds]: requests turned away by admission control — bounded
          queues, CoDel, dead-node drains *)
  deadline_giveups : int;
      (** [Deadline_giveups]: transactions shed past their deadline
          instead of retried *)
  availability : float array;
      (** per-second availability samples (incl. warmup); see
          [Cluster.availability] *)
  unavail_seconds : float;
      (** integral of (1 − availability) over the run — lost
          capacity-seconds *)
  time_to_recover : float;
      (** seconds from the first to the last degraded availability
          sample; 0 when never degraded, [infinity] when the run ends
          still degraded *)
  goodput_under_fault : float;
      (** mean commits/s over the degraded seconds (0 when never
          degraded) *)
  engine_events : int;
      (** total simulation events executed over the whole run (incl.
          warmup) — the denominator the perf harness uses to turn wall
          time into events/sec *)
  counters : Lion_sim.Metrics.snapshot;
      (** every counter at the end of the run, over the measured window *)
}

val count : result -> Lion_sim.Metrics.counter -> int
(** [count r c] is counter [c] over [r]'s measured window. *)

type trace_sink = {
  fresh : unit -> Lion_trace.Trace.t;
      (** one tracer per [run] call; may be called from any domain *)
  emit : Lion_trace.Trace.t -> unit;  (** called when that run finishes *)
}
(** How the CLI's [--trace] flag reaches every run of an experiment:
    each [run] handed a sink (and no explicit [tracer]) builds its
    cluster with [fresh ()] and hands the tracer to [emit] after
    collecting results. *)

val run :
  ?seed:int ->
  ?batch:bool ->
  ?setup:(Lion_store.Cluster.t -> unit) ->
  ?trace:trace_sink ->
  ?tracer:Lion_trace.Trace.t ->
  ?history:Lion_store.History.t ->
  cfg:Lion_store.Config.t ->
  make:(Lion_store.Cluster.t -> Lion_protocols.Proto.t) ->
  gen:(time:float -> Lion_workload.Txn.t) ->
  config ->
  result
(** [batch] (default false) selects the auto client count: 2× workers
    for standard protocols, one per batch slot for batch protocols.
    [setup] runs after the cluster is built and before any client
    starts — fault-injection experiments use it to schedule node
    failures on the cluster's engine. [tracer] (default: [trace]'s
    [fresh ()], else none) enables causal transaction tracing on the
    cluster; the caller inspects or exports it afterwards. [history] (default
    none) attaches a consistency-audit sink that the protocol engines
    fill with one event per transaction attempt — see
    {!Lion_store.History} and the [Lion_audit] checker. *)

val cells :
  ?domains:int -> ?trace:trace_sink -> (?trace:trace_sink -> 'a -> 'b) -> 'a list -> 'b list
(** [cells run xs] runs the independent sweep cells [xs] on
    {!Pool.map} (same [domains]) and returns their results in order.
    Each cell passes [trace] on to its [run] calls; their tracers are
    held back and handed to [trace.emit] from the calling domain in
    cell order once every cell is done, so trace numbering and report
    order do not depend on the domain count. *)

(** {1 Declarative cells}

    An experiment is a list of cells plus a renderer: build the cells,
    run them with {!run_cells}, and print the results with one of the
    {!Lion_kernel.Table} renderers. *)

type cell = {
  seed : int;
  batch : bool;
  cfg : Lion_store.Config.t;
  make : Lion_store.Cluster.t -> Lion_protocols.Proto.t;
  gen : unit -> time:float -> Lion_workload.Txn.t;
      (** generator factory, called inside the cell *)
  rc : config;
  setup : (Lion_store.Cluster.t -> unit) option;
}
(** The arguments of one {!run} call. *)

val cell :
  ?seed:int ->
  ?batch:bool ->
  ?setup:(Lion_store.Cluster.t -> unit) ->
  cfg:Lion_store.Config.t ->
  make:(Lion_store.Cluster.t -> Lion_protocols.Proto.t) ->
  gen:(unit -> time:float -> Lion_workload.Txn.t) ->
  config ->
  cell
(** Defaults as in {!run}: seed 1, not batch, no setup. *)

val run_cell : ?trace:trace_sink -> cell -> result
(** One {!run} of the cell, with a fresh generator from its factory. *)

val run_cells : ?domains:int -> ?trace:trace_sink -> cell list -> result list
(** {!run_cell} over the list through {!cells}: on the pool, results
    and traces in cell order. *)

val run_grid : ?trace:trace_sink -> ('r -> 'c -> cell) -> 'r list -> 'c list -> result list list
(** One cell per (row, column) pair, all on the pool; the results come
    back as one list per row, in column order. *)

(** {1 Result columns}

    [(header, cell text)] pairs for {!Lion_kernel.Table.by_row} and
    {!Lion_kernel.Table.by_metric}, shared by every results table. *)

type column = string * (result -> string)

val fmt_k : float -> string
(** Thousands with one decimal: the [k txn/s] format. *)

val k_txn : ?header:string -> unit -> column
(** Throughput in k txn/s (header default ["k txn/s"]). *)

val tally : string -> (result -> int) -> column
val fixed : ?decimals:int -> string -> (result -> float) -> column

val ms : ?decimals:int -> string -> (result -> float) -> column
(** A latency in µs, printed in ms ([decimals] default 1). *)

val aborts : column
val timeouts : column
val retries : column
val drops : column

val single_node : column
(** ["single-node %"]: share of commits that ran on one node. *)
