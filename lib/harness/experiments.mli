(** The paper's evaluation (§VI) and this repo's extra ablations, chaos,
    overload, membership and geo experiments, one registry entry each.

    Every simulated experiment is a list of {!Runner.cell}s plus a
    {!Lion_kernel.Table} renderer: the cells run on {!Pool.map} and the
    table prints from their results in cell order, so the output does
    not depend on the core count. [trace] reaches every run (see
    {!Runner.cells}); the float is the scale that multiplies all
    simulated durations (1.0 = the paper's windows, < 1 for smoke
    runs). *)

val registry : (string * string * (?trace:Runner.trace_sink -> float -> unit)) list
(** (id, description, run-with-scale) for every experiment. *)

val fig6_ablation : ?domains:int -> ?trace:Runner.trace_sink -> ?scale:float -> unit -> unit
(** Table II + Fig. 6: the seven Lion variants on uniform YCSB with
    100 % distributed transactions. [domains] caps the pool's workers
    (default one per core); the output is the same at any value. *)
