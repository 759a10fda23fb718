type variant = V_2pc | V_s | V_r | V_sw | V_rw | V_rb | V_full

let all = [ V_2pc; V_s; V_r; V_sw; V_rw; V_rb; V_full ]

let name = function
  | V_2pc -> "2PC"
  | V_s -> "Lion(S)"
  | V_r -> "Lion(R)"
  | V_sw -> "Lion(SW)"
  | V_rw -> "Lion(RW)"
  | V_rb -> "Lion(RB)"
  | V_full -> "Lion"

let is_batch = function V_rb | V_full -> true | _ -> false

let config ~strategy ~w_p ~use_lstm = { Planner.strategy; w_p; use_lstm }

let create ?seed ?(use_lstm = true) variant cl =
  match variant with
  | V_2pc -> Lion_protocols.Twopc.create cl
  | V_s ->
      Standard.create ?seed
        ~config:(config ~strategy:Planner.Schism_strategy ~w_p:0.0 ~use_lstm)
        cl
  | V_r ->
      Standard.create ?seed
        ~config:(config ~strategy:Planner.Rearrange ~w_p:0.0 ~use_lstm)
        cl
  | V_sw ->
      Standard.create ?seed
        ~config:(config ~strategy:Planner.Schism_strategy ~w_p:1.0 ~use_lstm)
        cl
  | V_rw ->
      Standard.create ?seed
        ~config:(config ~strategy:Planner.Rearrange ~w_p:1.0 ~use_lstm)
        cl
  | V_rb ->
      Batch_mode.create ?seed
        ~config:(config ~strategy:Planner.Rearrange ~w_p:0.0 ~use_lstm)
        cl
  | V_full ->
      Batch_mode.create ?seed
        ~config:(config ~strategy:Planner.Rearrange ~w_p:1.0 ~use_lstm)
        cl
