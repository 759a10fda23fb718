(* The flags several subcommands share, each defined once. A tool that
   used a different default passes its own, so every flag keeps the
   name and default it had as a stand-alone executable. *)

open Cmdliner
module Config = Lion_store.Config
module Protocols = Lion_harness.Protocols

let protocol_conv =
  let parse s =
    match Protocols.find s with Some p -> Ok p | None -> Error (`Msg (Protocols.unknown s))
  in
  Arg.conv (parse, fun ppf (p : Protocols.entry) -> Format.pp_print_string ppf p.id)

(* A registry id or one of a tool's extra names ([all], the ablation
   variants), checked at parse time and kept as the id. *)
let protocol_id ~also =
  let parse s =
    if Protocols.find s <> None || List.mem s also then Ok s
    else Error (`Msg (Protocols.unknown ~also s))
  in
  Arg.conv (parse, Format.pp_print_string)

let proto ?(also = []) () =
  Arg.(
    value
    & opt (protocol_id ~also) "lion"
    & info [ "proto" ] ~docv:"NAME" ~doc:("Protocol: " ^ doc_alts (Protocols.ids @ also) ^ "."))

let protos default =
  Arg.(
    value
    & opt (list protocol_conv) (List.map Protocols.get default)
    & info [ "protos" ] ~docv:"A,B,..." ~doc:"Comma-separated protocol ids.")

let seed ?(default = 1) () =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed.")

let cross default =
  Arg.(value & opt float default & info [ "cross" ] ~doc:"Cross-partition transaction ratio.")

let skew default = Arg.(value & opt float default & info [ "skew" ] ~doc:"Skew factor (0..1).")

let seconds default =
  Arg.(value & opt float default & info [ "seconds" ] ~docv:"F" ~doc:"Simulated seconds to run.")

let smoke = Arg.(value & flag & info [ "smoke" ] ~doc:"CI-sized run: shorter durations.")

let scale default =
  Arg.(value & opt float default & info [ "scale" ] ~doc:"Duration scale factor.")

let out ~docv ~doc default = Arg.(value & opt string default & info [ "out" ] ~docv ~doc)

let remaster_delay default =
  Arg.(
    value
    & opt (some float) default
    & info [ "remaster-delay" ] ~docv:"US"
        ~doc:"Remaster delay in us; the remaster cooldown becomes 10x it.")

let with_remaster_delay delay cfg =
  match delay with
  | None -> cfg
  | Some d -> { cfg with Config.remaster_delay = d; remaster_cooldown = 10.0 *. d }
