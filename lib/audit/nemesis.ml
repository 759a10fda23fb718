type t = at:float -> Lion_sim.Fault.plan

let calm ~at:_ = Lion_sim.Fault.none
