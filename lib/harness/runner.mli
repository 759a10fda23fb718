(** Experiment runner: builds a cluster, drives a protocol over a
    workload for a span of simulated time, and collects the series and
    summary statistics every figure needs.

    The default drive is closed-loop: a small client pool (a multiple
    of the cluster's worker count for standard protocols, one client
    per batch slot for batch protocols, as in the paper's benchmarking
    setup) where each client submits its next transaction when the
    previous finishes. [arrival] switches to open-loop driving, where
    transactions arrive at a configured offered rate regardless of
    completions — the mode that can push the system past saturation
    (docs/OVERLOAD.md, EXPERIMENTS.md). *)

type arrival =
  | Closed  (** closed loop: [clients] concurrent submitters *)
  | Poisson of float
      (** open loop, Poisson arrivals at this rate (txns per simulated
          second); [clients] is ignored *)
  | Uniform of float
      (** open loop, deterministic evenly-spaced arrivals at this rate *)

type config = {
  clients : int;  (** closed-loop concurrency; 0 = auto per protocol *)
  warmup : float;  (** simulated seconds excluded from summary stats *)
  duration : float;  (** measured simulated seconds *)
  tick_every : float;  (** planner/monitor tick period, seconds *)
  arrival : arrival;  (** load drive; [Closed] is the benchmark default *)
}

val quick : config
(** warmup 2 s, duration 6 s, tick 1 s, closed loop — the benchmark
    default. *)

type result = {
  throughput : float;  (** commits per measured second *)
  goodput : float;
      (** commits that beat [Config.deadline], per measured second
          (= [throughput] when no deadline is configured) *)
  offered : float;
      (** arrivals per measured second under open-loop driving; equals
          [throughput] under closed loop, where load tracks completion *)
  commits : int;
  aborts : int;
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
  remasters : int;  (** cluster-wide remaster operations *)
  replica_adds : int;
  timeouts : int;  (** RPCs that exhausted their retries (measured window) *)
  retries : int;  (** RPC retransmissions after a loss (measured window) *)
  drops : int;  (** messages killed by the fault layer (measured window) *)
  sheds : int;
      (** requests turned away by admission control — bounded queues,
          CoDel, dead-node drains (measured window) *)
  breaker_rejects : int;  (** RPCs fast-failed by an open circuit breaker *)
  breaker_opens : int;  (** circuit-breaker trips (measured window) *)
  budget_denials : int;
      (** retransmissions abandoned for lack of retry-budget tokens *)
  deadline_giveups : int;
      (** transactions shed past their deadline instead of retried *)
  deadline_misses : int;
      (** transactions committed after their deadline (counted in
          [throughput], discounted from [goodput]) *)
  stale_ack_rejections : int;
      (** stale-session replication deliveries rejected by
          [Config.session_tagging] (measured window; always 0 with
          tagging off) *)
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
}

type trace_sink = {
  fresh : unit -> Lion_trace.Trace.t;  (** one tracer per [run] call *)
  emit : Lion_trace.Trace.t -> unit;  (** called when that run finishes *)
}
(** Hook wiring the CLI's [--trace] flag to every experiment without
    threading a tracer through each figure function: when a sink is
    installed, each [run] (that was not handed an explicit [tracer])
    builds its cluster with [fresh ()] and hands the tracer to [emit]
    after collecting results. *)

val set_trace_sink : trace_sink -> unit
val clear_trace_sink : unit -> unit

val run :
  ?seed:int ->
  ?batch:bool ->
  ?setup:(Lion_store.Cluster.t -> unit) ->
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
    failures on the cluster's engine. [tracer] (default: ask the trace
    sink, else none) enables causal transaction tracing on the cluster;
    the caller inspects or exports it afterwards. [history] (default
    none) attaches a consistency-audit sink that the protocol engines
    fill with one event per transaction attempt — see
    {!Lion_store.History} and the [Lion_audit] checker. *)
