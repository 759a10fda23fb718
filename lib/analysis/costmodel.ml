module Placement = Lion_store.Placement

(* Eq. 3's unit costs, fit to the simulated substrate: copying a
   partition costs ten leader transfers. *)
let w_r = 1.0
let w_m = 10.0

type wan = { region_of : int -> int; factor : float }
type t = { freq : int -> float; wan : wan option }

let make ?wan ~freq () = { freq; wan }

let cnt_r t placement ~part ~node =
  if Placement.has_primary placement ~part ~node then 0.0
  else if Placement.has_secondary placement ~part ~node then (
    let f_primary = t.freq part in
    1.0 +. (log (f_primary +. 1.0) /. log 2.0))
  else 0.0

let cnt_m _t placement ~part ~node =
  if Placement.has_replica placement ~part ~node then 0.0 else 1.0

(* Cross-region multiplier for moving [part]'s mastership (or a copy)
   to [node]: a leader transfer or migration whose source primary sits
   in another region ships its bytes over the WAN, so both terms scale
   by [factor]. [None] — every region-free run — scales by 1.0, which
   is exact. *)
let[@inline] wan_scale t placement ~part ~node =
  match t.wan with
  | None -> 1.0
  | Some w ->
      if w.region_of (Placement.primary placement part) <> w.region_of node
      then w.factor
      else 1.0

let clump_cost t placement ~parts ~node =
  List.fold_left
    (fun acc part ->
      let s = wan_scale t placement ~part ~node in
      acc
      +. (s *. w_r *. cnt_r t placement ~part ~node)
      +. (s *. w_m *. cnt_m t placement ~part ~node))
    0.0 parts

let find_dst_node ?eligible t placement ~parts =
  let nodes = Placement.nodes placement in
  let ok n = match eligible with None -> true | Some f -> f n in
  let best = ref (0, infinity) in
  for node = 0 to nodes - 1 do
    if ok node then begin
      let c = clump_cost t placement ~parts ~node in
      let _, best_c = !best in
      if c < best_c then best := (node, c)
    end
  done;
  !best

(* Execution-time promotion is opportunistic, unlike a planner move
   that carries co-access evidence: stealing a busy primary away from
   the clump it serves breaks every transaction of that clump until it
   flips back. The router therefore prices remastering with a steep
   frequency term — for the hottest partitions it approaches w_m, so a
   transaction that would disrupt a hot clump runs 2PC instead. *)
let route_freq_scale = 1000.0

(* A loop rather than a fold so the running sum stays an unboxed local;
   the terms are added in list order, as a left fold would. *)
let txn_route_cost t placement ~parts ~node =
  let acc = ref 0.0 and rest = ref parts in
  while !rest != [] do
    match !rest with
    | [] -> ()
    | part :: tl ->
        rest := tl;
        if Placement.has_primary placement ~part ~node then ()
        else if Placement.has_secondary placement ~part ~node then (
          let f = t.freq part *. route_freq_scale in
          let s = wan_scale t placement ~part ~node in
          acc := !acc +. (s *. (w_r *. (1.0 +. (log (f +. 1.0) /. log 2.0)))))
        else acc := !acc +. w_m
  done;
  !acc
