module Rng = Lion_kernel.Rng
module Zipf = Lion_kernel.Zipf
module Kvstore = Lion_store.Kvstore

type params = {
  partitions : int;
  nodes : int;
  keys_per_partition : int;
  ops_per_txn : int;
  write_ratio : float;
  skew_factor : float;
  cross_ratio : float;
  neighbor_cross : bool;
  hot_node : int;
  hot_span : int;
  hot_contiguous : bool;
  partition_offset : int;
  key_theta : float;
}

let default_params ~partitions ~nodes =
  {
    partitions;
    nodes;
    keys_per_partition = 1_000_000;
    ops_per_txn = 10;
    write_ratio = 0.5;
    skew_factor = 0.0;
    cross_ratio = 0.0;
    neighbor_cross = true;
    hot_node = 0;
    hot_span = max 1 (partitions / nodes);
    hot_contiguous = false;
    partition_offset = 0;
    key_theta = 0.6;
  }

let workload_mix ~partitions ~nodes letter =
  let base = default_params ~partitions ~nodes in
  match Char.uppercase_ascii letter with
  | 'A' -> { base with write_ratio = 0.5 }
  | 'B' -> { base with write_ratio = 0.05 }
  | 'C' -> { base with write_ratio = 0.0 }
  | 'D' -> { base with write_ratio = 0.05; key_theta = 0.99 }
  | 'E' -> { base with write_ratio = 0.0; ops_per_txn = 10 }
  | 'F' -> { base with write_ratio = 0.5 }
  | c -> invalid_arg (Printf.sprintf "Ycsb.workload_mix: unknown workload %c" c)

type t = {
  mutable p : params;
  rng : Rng.t;
  mutable key_dist : Zipf.t;
  mutable next_id : int;
}

let create ?(seed = 7) p =
  {
    p;
    rng = Rng.create seed;
    key_dist = Zipf.create ~n:p.keys_per_partition ~theta:p.key_theta;
    next_id = 0;
  }

let params t = t.p

let set_params t p =
  if
    p.keys_per_partition <> Zipf.n t.key_dist
    || p.key_theta <> Zipf.theta t.key_dist
  then t.key_dist <- Zipf.create ~n:p.keys_per_partition ~theta:p.key_theta;
  t.p <- p

(* Partitions owned (as initial primaries, round-robin layout) by the
   hot node are [hot_node; hot_node + nodes; ...]. The hotspot is the
   first [hot_span] of them so that skewed load lands on one node until
   the protocol under test rebalances it. *)
let hot_partition t =
  let p = t.p in
  let i = Rng.int t.rng (max 1 p.hot_span) in
  if p.hot_contiguous then i mod p.partitions
  else (p.hot_node + (i * p.nodes)) mod p.partitions

let rotate t part = (part + t.p.partition_offset) mod t.p.partitions

(* Raw (pre-rotation) home choice, so that neighbour pairing is stable
   under a shifting partition offset. *)
let raw_home t =
  if t.p.skew_factor > 0.0 && Rng.bernoulli t.rng t.p.skew_factor then
    hot_partition t
  else Rng.int t.rng t.p.partitions


(* Second partition of a cross transaction, in the raw domain. *)
let raw_other t raw_home_part =
  let p = t.p in
  if p.partitions = 1 then raw_home_part
  else if p.neighbor_cross then (raw_home_part + 1) mod p.partitions
  else (
    let rec pick tries =
      let cand = raw_home t in
      if cand <> raw_home_part || tries > 8 then cand else pick (tries + 1)
    in
    let cand = pick 0 in
    if cand = raw_home_part then (raw_home_part + 1) mod p.partitions else cand)

let make_op t part =
  let slot = Zipf.sample t.key_dist t.rng in
  let k = Kvstore.key ~part ~slot in
  if Rng.bernoulli t.rng t.p.write_ratio then Txn.write k else Txn.read k

(* The first [split] operations go to the home partition, the rest to
   [remote]; drawn in index order, as [Array.init] would. *)
let fill_ops t n ~home ~remote ~split =
  if n = 0 then [||]
  else (
    let ops = Array.make n (make_op t home) in
    for i = 1 to n - 1 do
      ops.(i) <- make_op t (if i < split then home else remote)
    done;
    ops)

let next t =
  let p = t.p in
  let raw = raw_home t in
  let home = rotate t raw in
  let cross = p.cross_ratio > 0.0 && Rng.bernoulli t.rng p.cross_ratio in
  let n = p.ops_per_txn in
  let ops =
    if cross then
      fill_ops t n ~home ~remote:(rotate t (raw_other t raw)) ~split:(max 1 (n / 2))
    else fill_ops t n ~home ~remote:home ~split:n
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  Txn.make ~id ops
