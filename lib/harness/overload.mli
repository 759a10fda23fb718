(** Overload and graceful-degradation experiments (docs/OVERLOAD.md).

    Three building blocks, shared by [lion overload], the
    experiment registry and the tests:
    - a closed-loop {e capacity probe} per protocol;
    - an open-loop {e offered-load sweep} through and past saturation
      (throughput / goodput / p99 vs offered load), with or without the
      overload-protection knobs of [Config.with_overload_defaults];
    - a seeded {e metastable-failure reproduction}: a 3 s single-node
      slowdown under saturation open-loop load, run once with admission
      control only (goodput stays collapsed long after the trigger
      clears — the system keeps committing transactions whose clients
      gave up) and once with retry budgets + breakers + enforced
      deadlines (the zombie backlog is shed and goodput recovers). *)

val protocols : Protocols.entry list
(** The protocols the sweep covers: lion, star, 2pc. Lion runs with
    prediction but without the LSTM forecaster. *)

val probe_capacity :
  ?seed:int -> ?scale:float -> ?trace:Runner.trace_sink -> Protocols.entry -> float
(** Closed-loop throughput (txn/s) on the shared overload workload —
    the saturation point the sweep ratios are relative to. *)

type point = { ratio : float;  (** offered / capacity *) result : Runner.result }

type sweep = {
  proto : Protocols.entry;
  protected_ : bool;  (** ran with [Config.with_overload_defaults] *)
  capacity : float;
  points : point list;
}

val default_ratios : float list
(** 0.25, 0.5, 0.75, 1.0, 1.25, 1.5 — through and past saturation. *)

val sweep_one :
  ?seed:int ->
  ?scale:float ->
  ?protect:bool ->
  ?ratios:float list ->
  ?trace:Runner.trace_sink ->
  Protocols.entry ->
  sweep
(** Probe capacity, then one open-loop Poisson run per ratio.
    [protect] (default false) turns every overload knob on. *)

val sweep :
  ?seed:int ->
  ?scale:float ->
  ?ratios:float list ->
  ?trace:Runner.trace_sink ->
  ?protocols:Protocols.entry list ->
  bool list ->
  sweep list
(** [sweep protects]: one {!sweep_one} cell per [protect] flag and
    protocol (default {!protocols}), in that order, on the pool. *)

val sweep_rows : sweep list -> string list * string list list
(** CSV header + rows (one row per protocol x ratio). *)

val print_sweeps : sweep list -> unit

type meta = {
  label : string;
  capacity : float;
  peak : float;  (** mean goodput/s before the trigger, seconds [2,6) *)
  during : float;  (** mean goodput/s while the trigger is active, [6,9) *)
  tail : float;
      (** mean goodput/s over [14,20), five seconds after the trigger
          cleared — the metastability verdict: an unprotected collapse
          holds the tail far below [peak] even though the trigger is
          long gone *)
  series : float array;  (** goodput per second, full run *)
  commit_series : float array;  (** raw commits per second, full run *)
  result : Runner.result;
}

val metastable :
  ?seed:int ->
  ?scale:float ->
  ?load:float ->
  ?trace:Runner.trace_sink ->
  protect:bool ->
  unit ->
  meta
(** One metastable run (2PC, open-loop Poisson at [load] (default 1.0)
    x probed capacity, node 0 slowed 12x from 6 s to 9 s, 20 s total,
    all times x [scale]). Both variants measure the same 200 ms client
    patience; [protect = false] keeps bounded queues but strips
    budgets and breakers and leaves the deadline unenforced
    ([enforce = false] in [Config.deadline]), so its goodput counts the
    stale commits it keeps producing against it. *)

val metastable_pair :
  ?seed:int -> ?scale:float -> ?load:float -> ?trace:Runner.trace_sink -> unit -> meta list
(** The unprotected and protected runs, in that order, as two cells on
    the pool (traced protected first). *)

val metastable_rows : meta list -> string list * string list list
(** Per-second CSV: goodput/s and commits/s columns per variant. *)

val print_metastable : meta list -> unit
