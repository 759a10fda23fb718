module Planner = Lion_core.Planner
module P = Lion_protocols

type entry = {
  id : string;
  label : string;
  batch : bool;
  make : ?config:Planner.config -> Lion_store.Cluster.t -> P.Proto.t;
}

let plain id label batch create =
  { id; label; batch; make = (fun ?config:_ cl -> create cl) }

let lion id batch make = { id; label = "Lion"; batch; make }

let all =
  [
    plain "2pc" "2PC" false P.Twopc.create;
    plain "leap" "Leap" false P.Leap.create;
    plain "clay" "Clay" false (fun cl -> P.Clay.create cl);
    plain "unified" "Unified" false P.Unified.create;
    plain "star" "Star" true P.Star.create;
    plain "calvin" "Calvin" true P.Calvin.create;
    plain "hermes" "Hermes" true P.Hermes.create;
    plain "aria" "Aria" true P.Aria.create;
    plain "lotus" "Lotus" true (fun cl -> P.Lotus.create cl);
    lion "lion" false (fun ?config cl -> Lion_core.Standard.create ~name:"Lion" ?config cl);
    lion "lion-batch" true (fun ?config cl ->
        Lion_core.Batch_mode.create ~name:"Lion" ?config cl);
    plain "epoch" "EpochOCC" false (fun cl -> P.Epoch.create cl);
  ]

let ids = List.map (fun p -> p.id) all
let find id = List.find_opt (fun p -> p.id = id) all

let get id =
  match find id with
  | Some p -> p
  | None -> invalid_arg ("Protocols.get: unknown protocol " ^ id)

let lineup ?config ids =
  List.map
    (fun id ->
      let p = get id in
      (p.label, p.batch, p.make ?config))
    ids

let unknown ?(also = []) id =
  Printf.sprintf "unknown protocol %S (known: %s)" id (String.concat ", " (ids @ also))
