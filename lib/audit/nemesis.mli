(** A nemesis is a fault scenario not yet anchored in time: given the
    start time, it builds the {!Lion_sim.Fault.plan}. A {!Lion_sim.Fault}
    recipe applied to everything but [~at] is one, e.g.
    [Fault.crash_recover ~node:1 ~downtime:1e6]. Building a plan draws
    nothing from the simulation, so the same nemesis at the same start
    always yields the same plan. *)

type t = at:float -> Lion_sim.Fault.plan

val calm : t
(** No faults — the control nemesis. *)
