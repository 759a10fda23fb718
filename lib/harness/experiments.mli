(** One experiment per table/figure of the paper's evaluation (§VI).

    Every function prints the figure's data as an aligned table (series
    per row) in the same shape the paper plots, plus the headline
    observations the paper reports. [scale] multiplies all simulated
    durations (default 1.0; use < 1 for smoke runs).

    Sweeps run their independent cells on {!Pool.map}, one domain per
    core, and print from the results in cell order, so their output
    does not depend on the core count. [trace] reaches every
    {!Runner.run} of an experiment (see {!Runner.cells}).

    The registry maps experiment ids to runners for [lion experiment]. *)

type experiment = ?trace:Runner.trace_sink -> ?scale:float -> unit -> unit

val table1_comparison : unit -> unit
(** Table I: qualitative design-dimension comparison (printed as-is). *)

val fig6_ablation : ?domains:int -> experiment
(** Table II + Fig. 6: the seven Lion variants on uniform YCSB with
    100 % distributed transactions. [domains] caps the pool's workers
    (default one per core); the output is the same at any value. *)

val fig7_crossratio_nonbatch : experiment
(** Fig. 7: throughput vs cross-partition ratio, skewed YCSB and TPC-C,
    standard-execution protocols, remaster delay 3000 µs. *)

val fig8_dynamic_nonbatch : experiment
(** Fig. 8: throughput over time under the two dynamic scenarios,
    standard-execution protocols. *)

val fig9_crossratio_batch : experiment
(** Fig. 9: throughput vs cross-partition ratio, batch protocols. *)

val fig10_dynamic_batch : experiment
(** Fig. 10: throughput over time, batch protocols. *)

val fig11_scalability : experiment
(** Fig. 11: throughput at 4–10 executor nodes, 100 % cross-partition
    uniform workload, all protocols. *)

val fig12_migration_analysis : experiment
(** Fig. 12: throughput and network bytes/transaction over time as the
    planner pre-replicates ahead of a predicted workload shift. *)

val fig13a_preplication : experiment
(** Fig. 13a: adaptation speed with and without the prediction
    mechanism (time to recover steady throughput after a shift). *)

val fig13b_batch_opt : experiment
(** Fig. 13b: impact of the remastering delay on standard vs batch
    Lion (asynchronous remastering hides the latency). *)

val fig14_latency : experiment
(** Fig. 14: latency percentiles and per-phase breakdown for the batch
    protocols. *)

val abl_cooldown : experiment
(** Extra ablation: the remaster cooldown that damps ping-pong — sweep
    it and report throughput and remaster rate. *)

val abl_replicas : experiment
(** Extra ablation: the per-partition replica budget (paper §IV-B sets
    a user-configurable maximum, 4 in the evaluation). *)

val abl_wp : experiment
(** Extra ablation: the prediction weight w_p of §IV-C (0 disables the
    predictor; the paper's default is 1). *)

val abl_forecaster : ?scale:float -> unit -> unit
(** Extra ablation: forecast accuracy of the LSTM against vanilla-RNN
    and linear-regression baselines on arrival-rate-shaped series
    (§IV-C1's model-choice argument). *)

val abl_failover : experiment
(** Extra ablation: crash one node mid-run and recover it — exercising
    the availability machinery (leader election, failover promotion)
    that partition-based replication exists to provide. *)

val abl_read_secondary : experiment
(** Extra ablation: the bounded-staleness extension serving all-read
    partition groups from locally-held secondaries (beyond the paper,
    where only primaries serve operations). *)

val overload_sweep : experiment
(** Overload: open-loop offered-load sweep for lion/star/2pc, with
    and without the protection knobs — see {!Overload}. *)

val metastable : experiment
(** Overload: the metastable-failure reproduction, unprotected vs
    protected — see {!Overload.metastable}. *)

val elastic_scale : ?scale:float -> unit -> unit
(** Membership: the forecast-driven autoscaler joining and
    decommissioning nodes over a diurnal open-loop cycle — see
    {!Elastic}. Any [scale] < 1 selects the smoke-sized run. *)

val registry : (string * string * (?trace:Runner.trace_sink -> float -> unit)) list
(** (id, description, run-with-scale) for every experiment above. *)
