module Placement = Lion_store.Placement

(* An all-float record is stored unboxed, so a bump adds in place
   instead of boxing a new sum. *)
type weight = { mutable w : float }

(* The generic table's hash and bucket order, with int equality in
   place of [compare]. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = {
  partitions : int;
  vweight : float array;
  (* adjacency: per-vertex hashtable of neighbour -> weight; edges are
     stored symmetrically. *)
  adj : weight Itbl.t array;
}

let create ~partitions =
  { partitions; vweight = Array.make partitions 0.0; adj = Array.init partitions (fun _ -> Itbl.create 8) }

let bump tbl b w =
  match Itbl.find tbl b with
  | cell -> cell.w <- cell.w +. w
  | exception Not_found -> Itbl.add tbl b { w }

let bump_edge t u v w =
  bump t.adj.(u) v w;
  bump t.adj.(v) u w

(* Top-level recursion, so adding a transaction builds no closure. *)
let rec add_vertices t w = function
  | [] -> ()
  | p :: rest ->
      t.vweight.(p) <- t.vweight.(p) +. w;
      add_vertices t w rest

let rec add_edges t p w = function
  | [] -> ()
  | q :: rest ->
      bump_edge t p q w;
      add_edges t p w rest

let rec add_pairs t w = function
  | [] -> ()
  | p :: rest ->
      add_edges t p w rest;
      add_pairs t w rest

let add_weighted t parts w =
  add_vertices t w parts;
  add_pairs t w parts

let add_txn t ~parts = add_weighted t parts 1.0
let add_predicted t ~parts ~weight = if weight > 0.0 then add_weighted t parts weight
let vertex_weight t p = t.vweight.(p)

let edge_weight t u v = match Itbl.find_opt t.adj.(u) v with Some c -> c.w | None -> 0.0

let effective_edge_weight t ~placement ~cross_boost u v =
  let w = edge_weight t u v in
  if w = 0.0 then 0.0
  else if Placement.primary placement u <> Placement.primary placement v then
    w *. cross_boost
  else w

let neighbors t p = Itbl.fold (fun q _ acc -> q :: acc) t.adj.(p) [] |> List.sort compare

let hottest_first t =
  let verts = ref [] in
  for p = t.partitions - 1 downto 0 do
    if t.vweight.(p) > 0.0 then verts := p :: !verts
  done;
  List.stable_sort (fun a b -> compare t.vweight.(b) t.vweight.(a)) !verts

let edge_count t =
  Array.fold_left (fun acc tbl -> acc + Itbl.length tbl) 0 t.adj / 2

let mean_edge_weight t =
  let total = ref 0.0 and count = ref 0 in
  Array.iter
    (fun tbl ->
      Itbl.iter
        (fun _ c ->
          total := !total +. c.w;
          incr count)
        tbl)
    t.adj;
  if !count = 0 then 0.0 else !total /. float_of_int !count

let clear t =
  Array.fill t.vweight 0 t.partitions 0.0;
  Array.iter Itbl.reset t.adj
