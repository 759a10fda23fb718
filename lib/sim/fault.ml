module Rng = Lion_kernel.Rng

type spec =
  | Crash of { node : int; at : float; recover_at : float option }
  | Partition of { groups : int list list; from_ : float; until : float }
  | Drop of {
      src : int option;
      dst : int option;
      prob : float;
      from_ : float;
      until : float;
    }
  | Jitter of { extra : float; from_ : float; until : float }
  | Straggler of { node : int; factor : float; from_ : float; until : float }
  | Delay of {
      src : int option;
      dst : int option;
      extra : float;
      from_ : float;
      until : float;
    }

type plan = spec list

let none : plan = []
let crash ~node ~at ?recover_at () = Crash { node; at; recover_at }
let partition ~groups ~from_ ~until = Partition { groups; from_; until }
let drop ?src ?dst ~prob ~from_ ~until () = Drop { src; dst; prob; from_; until }
let jitter ~extra ~from_ ~until = Jitter { extra; from_; until }
let delay ?src ?dst ~extra ~from_ ~until () = Delay { src; dst; extra; from_; until }
let straggler ~node ~factor ~from_ ~until = Straggler { node; factor; from_; until }

(* Named scenarios: each is a plan, and plans compose with [@]. *)
let crash_recover ~node ~at ~downtime =
  [ crash ~node ~at ~recover_at:(at +. downtime) () ]

let split_brain ~groups ~at ~duration =
  [ partition ~groups ~from_:at ~until:(at +. duration) ]

let lossy ?src ?dst ~prob ~from_ ~until () = [ drop ?src ?dst ~prob ~from_ ~until () ]
let slow_node ~node ~factor ~from_ ~until = [ straggler ~node ~factor ~from_ ~until ]

(* [link_specs] and [stragglers] split [plan] by what consults each
   spec, keeping plan order, so a message never walks crash or
   straggler specs and a CPU charge never walks link specs. *)
type t = {
  rng : Rng.t;
  plan : plan;
  link_specs : spec list;
  stragglers : spec list;
  down : bool array;
}

let create ?(seed = 17) ~nodes plan =
  {
    (* Offset the seed so the fault stream never aliases the cluster's
       other per-seed generators. *)
    rng = Rng.create ((seed * 1_000_003) + 7);
    plan;
    link_specs =
      List.filter
        (function
          | Partition _ | Drop _ | Jitter _ | Delay _ -> true
          | Crash _ | Straggler _ -> false)
        plan;
    stragglers = List.filter (function Straggler _ -> true | _ -> false) plan;
    down = Array.make (Stdlib.max 1 nodes) false;
  }

let plan t = t.plan
let[@inline] up t node = not t.down.(node)
let mark_down t node = t.down.(node) <- true
let mark_up t node = t.down.(node) <- false

let active ~(now : float) ~from_ ~until = now >= from_ && now < until

type verdict = Deliver of float | Blocked | Dropped

let group_of groups node =
  let rec go i = function
    | [] -> -1
    | g :: rest -> if List.mem node g then i else go (i + 1) rest
  in
  go 0 groups

(* Shared, so a delivery with no added latency allocates nothing. *)
let deliver_now = Deliver 0.0

let[@inline] link_inert t = match t.link_specs with [] -> true | _ :: _ -> false
let endpoints t ~src ~dst = if up t src && up t dst then deliver_now else Dropped

(* The RNG is consulted only when an active probabilistic spec matches
   this message, so an empty (or inactive) plan perturbs nothing — the
   no-fault event schedule stays bit-for-bit identical. *)
let link t ~now ~src ~dst =
  if not (up t src && up t dst) then Dropped
  else (
    let rec go extra = function
      | [] -> if extra = 0.0 then deliver_now else Deliver extra
      | spec :: rest -> (
          match spec with
          | Partition { groups; from_; until } when active ~now ~from_ ~until ->
              let gs = group_of groups src and gd = group_of groups dst in
              if gs >= 0 && gd >= 0 && gs <> gd then Blocked else go extra rest
          | Drop { src = s; dst = d; prob; from_; until }
            when active ~now ~from_ ~until
                 && (match s with None -> true | Some n -> n = src)
                 && (match d with None -> true | Some n -> n = dst) ->
              if prob > 0.0 && Rng.bernoulli t.rng prob then Dropped
              else go extra rest
          | Jitter { extra = e; from_; until }
            when active ~now ~from_ ~until && e > 0.0 ->
              go (extra +. Rng.float t.rng e) rest
          (* Unlike [Jitter], the added latency is deterministic: no RNG
             draw, so a plan using only [Delay] replays bit-for-bit. A
             message sent inside the window is slowed by the full
             [extra] — long enough, and it is still in flight when its
             destination crashes and rejoins. *)
          | Delay { src = s; dst = d; extra = e; from_; until }
            when active ~now ~from_ ~until && e > 0.0
                 && (match s with None -> true | Some n -> n = src)
                 && (match d with None -> true | Some n -> n = dst) ->
              go (extra +. e) rest
          | _ -> go extra rest)
    in
    go 0.0 t.link_specs)

let[@inline] slow_inert t = match t.stragglers with [] -> true | _ :: _ -> false

let slow_factor t ~now node =
  List.fold_left
    (fun acc spec ->
      match spec with
      | Straggler { node = n; factor; from_; until }
        when n = node && active ~now ~from_ ~until ->
          acc *. factor
      | _ -> acc)
    1.0 t.stragglers

let crash_events plan =
  let evs =
    List.concat_map
      (function
        | Crash { node; at; recover_at } ->
            (at, `Crash node)
            ::
            (match recover_at with
            | Some r -> [ (r, `Recover node) ]
            | None -> [])
        | _ -> [])
      plan
  in
  List.stable_sort (fun (a, _) (b, _) -> compare a b) evs
