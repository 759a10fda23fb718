module Proto = Lion_protocols.Proto
module Exec = Lion_protocols.Exec

let create_with_planner ?name ?(read_at_secondary = false) ?(seed = 29)
    ?(config = Planner.default_config) cl =
  let planner = Planner.create ~seed config cl in
  let router = Router.create cl (Planner.cost_model planner) in
  let name =
    match name with
    | Some n -> n
    | None -> (
        match (config.Planner.strategy, config.Planner.w_p > 0.0) with
        | Rearrange, true -> "Lion(RW)"
        | Rearrange, false -> "Lion(R)"
        | Schism_strategy, true -> "Lion(SW)"
        | Schism_strategy, false -> "Lion(S)")
  in
  let route t = Router.route router t in
  let flavor = { Exec.lion_flavor with Exec.read_at_secondary } in
  let proto =
    Proto.make ~name
      ~submit:(fun txn ~on_done ->
        Planner.observe planner txn;
        Exec.run cl ~route ~flavor txn ~on_done)
      ~tick:(fun () -> Planner.tick planner)
      ()
  in
  (proto, planner)

let create ?name ?read_at_secondary ?seed ?config cl =
  fst (create_with_planner ?name ?read_at_secondary ?seed ?config cl)
