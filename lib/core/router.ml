module Cluster = Lion_store.Cluster
module Placement = Lion_store.Placement
module Server = Lion_sim.Server
module Costmodel = Lion_analysis.Costmodel
module Txn = Lion_workload.Txn

(* Scratch space for one [route] call: [costs] by node, and the tied
   nodes in node order. *)
type t = {
  cl : Cluster.t;
  cost : Costmodel.t;
  mutable costs : float array;
  mutable tied : int array;
}

let create cl cost = { cl; cost; costs = [||]; tied = [||] }

(* Cost ties break on a deterministic hash of the partition set, never
   on instantaneous load: transactions accessing the same partitions
   must route to the same node or remastering ping-pongs between the
   tied nodes (§III), while distinct partition sets still spread across
   their tied candidates instead of piling onto one node id. Each live
   node is priced once; the tie set is every live node within 1e-9 of
   the cheapest, and the hash picks among them in node order. *)
let route t (txn : Txn.t) =
  let placement = t.cl.Cluster.placement in
  let nodes = Placement.nodes placement in
  if Array.length t.costs < nodes then (
    t.costs <- Array.make nodes infinity;
    t.tied <- Array.make nodes 0);
  let costs = t.costs and tied = t.tied in
  let best_cost = ref infinity in
  for node = 0 to nodes - 1 do
    if Cluster.alive t.cl node then (
      let c = Costmodel.txn_route_cost t.cost placement ~parts:txn.Txn.parts ~node in
      costs.(node) <- c;
      if c < !best_cost then best_cost := c)
  done;
  let cutoff = !best_cost +. 1e-9 in
  let n_tied = ref 0 in
  for node = 0 to nodes - 1 do
    if Cluster.alive t.cl node && costs.(node) <= cutoff then (
      tied.(!n_tied) <- node;
      incr n_tied)
  done;
  match !n_tied with
  | 0 -> invalid_arg "Router.route: no live node"
  | 1 -> tied.(0)
  | n -> tied.(Hashtbl.hash txn.Txn.parts mod n)

let cost_model t = t.cost
