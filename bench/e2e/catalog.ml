(* Every metric the benchmark reports: name, unit, direction, where
   its value comes from and, for end-to-end metrics, the share of the
   baseline median by which it may worsen before a change counts as a
   regression. BENCHMARK.json lists the same names and units; the
   self-test keeps the two in step. *)

type better = Higher | Lower

type source =
  | Sim  (** a function of the simulated run: mean over the run's seeds *)
  | Work
      (** wall clock of a rep, whose simulated work varies from seed to
          seed: scaled by the calibration probe, mean over the run's
          seeds *)
  | Clock
      (** wall clock, scaled by the calibration probe, or GC: median over
          the measured reps *)
  | Trace  (** boundary spans of the traced rep *)

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** end-to-end only; 0 for per-layer metrics *)
  source : source;
}

let e ?(source = Sim) name unit better bound = { name; unit; better; bound; source }
let l ?(source = Sim) name unit better = { name; unit; better; bound = 0.0; source }
let c = l ~source:Clock
let t = l ~source:Trace

(* Measured with tracing off. *)
let end_to_end =
  [
    e ~source:Clock "setup_s" "s" Lower 0.25;
    e ~source:Clock "txn_per_wall_s" "txn/s" Higher 0.25;
    e ~source:Work "wall_s" "s" Lower 0.25;
    e ~source:Clock "peak_heap_mb" "MiB" Lower 0.25;
    e "sim_tput_txn_s" "txn/sim-s" Higher 0.20;
    e "sim_p50_ms" "sim-ms" Lower 0.06;
    e "sim_p99_ms" "sim-ms" Lower 0.25;
    e "distributed_share" "ratio" Lower 0.25;
    e "bytes_per_txn" "B" Lower 0.20;
  ]

let per_layer =
  [
    t "workload.gen_ns" "ns" Lower;
    t "workload.gen_words" "words" Lower;
    t "workload.self_share" "share" Lower;
    t "protocols.submit_ns" "ns" Lower;
    t "protocols.submit_words" "words" Lower;
    t "protocols.self_share" "share" Lower;
    t "protocols.drain_s" "s" Lower;
    l "protocols.commit_yield" "ratio" Higher;
    t "core.tick_ms" "ms" Lower;
    t "core.tick_words" "words" Lower;
    t "core.self_share" "share" Lower;
    l "core.planner_rounds" "count" Higher;
    l "core.plan_adds" "count" Lower;
    l "store.remasters_per_ktxn" "1/ktxn" Lower;
    l "store.remastered_share" "ratio" Lower;
    l "store.replica_adds" "count" Lower;
    l "store.resyncs" "count" Lower;
    l "store.touched_keys" "count" Higher;
    l "store.placement_imbalance" "max/mean" Lower;
    l "sim.events_per_txn" "events/txn" Lower;
    c "sim.events_per_wall_s" "events/s" Higher;
    l "sim.clamped_schedules" "count" Lower;
    t "sim.self_share" "share" Lower;
    t "sim.ns_per_event" "ns" Lower;
    l "sim.msgs_per_txn" "msgs/txn" Lower;
    l "sim.worker_util" "share" Lower;
    l "sim.worker_wait_us_per_job" "sim-us" Lower;
    l "sim.messenger_util" "share" Lower;
    l "sim.messenger_wait_us_per_job" "sim-us" Lower;
    l "sim.latency_samples" "count" Higher;
    l "sim.phase.execution" "share" Lower;
    l "sim.phase.prepare" "share" Lower;
    l "sim.phase.commit" "share" Lower;
    l "sim.phase.remaster" "share" Lower;
    l "sim.phase.scheduling" "share" Lower;
    l "sim.phase.replication" "share" Lower;
    l "sim.retries" "count" Lower;
    l "sim.timeouts" "count" Lower;
    c "gc.minor_words_per_txn" "words/txn" Lower;
    c "gc.minor_words_per_event" "words/event" Lower;
    c "gc.promoted_words_per_txn" "words/txn" Lower;
    c "gc.major_collections" "count" Lower;
    t "harness.trace_overhead" "share" Lower;
    c "harness.rep_spread" "share" Lower;
    c "harness.probe_s" "s" Lower;
  ]

let all = end_to_end @ per_layer
let better_name = function Higher -> "higher" | Lower -> "lower"
