module Rng = Lion_kernel.Rng
module Kvstore = Lion_store.Kvstore

type params = {
  warehouses : int;
  nodes : int;
  skew_factor : float;
  cross_ratio : float;
  full_mix : bool;
  neighbor_remote : bool;
  payment_ratio : float;
  hot_node : int;
  hot_span : int;
  partition_offset : int;
}

let default_params ~warehouses ~nodes =
  {
    warehouses;
    nodes;
    skew_factor = 0.0;
    cross_ratio = 0.1;
    full_mix = false;
    neighbor_remote = true;
    payment_ratio = 0.0;
    hot_node = 0;
    hot_span = max 1 (warehouses / nodes);
    partition_offset = 0;
  }

module Layout = struct
  let warehouse_slot = 0
  let district_slot d = 16 * (1 + d)
  let customer_slot c = 1024 + c
  let stock_slot i = 1_000_000 + i
  let order_slot o = 10_000_000 + o
  let new_order_queue_slot d = 512 + (16 * d)
end

let districts = 10
let customers_per_warehouse = 30_000
let items = 100_000

type t = {
  mutable p : params;
  rng : Rng.t;
  mutable next_id : int;
  mutable next_order : int;
}

let create ?(seed = 11) p = { p; rng = Rng.create seed; next_id = 0; next_order = 0 }
let params t = t.p
let set_params t p = t.p <- p

let rotate t w = (w + t.p.partition_offset) mod t.p.warehouses

let home_warehouse t =
  let p = t.p in
  if p.skew_factor > 0.0 && Rng.bernoulli t.rng p.skew_factor then (
    let i = Rng.int t.rng (max 1 p.hot_span) in
    rotate t ((p.hot_node + (i * p.nodes)) mod p.warehouses))
  else rotate t (Rng.int t.rng p.warehouses)

let remote_warehouse t home =
  if t.p.warehouses = 1 then home
  else if t.p.neighbor_remote then (home + 1) mod t.p.warehouses
  else (
    let w = Rng.int t.rng (t.p.warehouses - 1) in
    if w >= home then w + 1 else w)

(* NURand-flavoured item pick: uniform is close enough for conflict
   shape since stock conflicts come from warehouse skew, not item skew. *)
let pick_item t = Rng.int t.rng items

(* Each transaction below fills its operation array in the order it
   draws from the generator's RNG, so the stream is fixed by the seed. *)
let new_order t =
  let p = t.p in
  let w = home_warehouse t in
  let d = Rng.int t.rng districts in
  let c = Rng.int t.rng customers_per_warehouse in
  let ol_cnt = Rng.int_in t.rng 5 15 in
  let cross = p.cross_ratio > 0.0 && Rng.bernoulli t.rng p.cross_ratio in
  let order = t.next_order in
  t.next_order <- order + 1;
  let ops = Array.make (4 + ol_cnt) (Txn.read (Kvstore.key ~part:w ~slot:Layout.warehouse_slot)) in
  ops.(1) <- Txn.write (Kvstore.key ~part:w ~slot:(Layout.district_slot d));
  ops.(2) <- Txn.read (Kvstore.key ~part:w ~slot:(Layout.customer_slot c));
  ops.(3) <- Txn.write (Kvstore.key ~part:w ~slot:(Layout.order_slot order));
  let remote_line = if cross then Rng.int t.rng ol_cnt else -1 in
  for i = 0 to ol_cnt - 1 do
    let supply = if i = remote_line then remote_warehouse t w else w in
    ops.(4 + i) <- Txn.write (Kvstore.key ~part:supply ~slot:(Layout.stock_slot (pick_item t)))
  done;
  ops

let payment t =
  let w = home_warehouse t in
  let d = Rng.int t.rng districts in
  let remote_cust = Rng.bernoulli t.rng 0.15 in
  let cw = if remote_cust then remote_warehouse t w else w in
  let c = Rng.int t.rng customers_per_warehouse in
  [|
    Txn.write (Kvstore.key ~part:w ~slot:Layout.warehouse_slot);
    Txn.write (Kvstore.key ~part:w ~slot:(Layout.district_slot d));
    Txn.write (Kvstore.key ~part:cw ~slot:(Layout.customer_slot c));
  |]

(* OrderStatus: read-only lookup of a customer's latest order. *)
let order_status t =
  let w = home_warehouse t in
  let c = Rng.int t.rng customers_per_warehouse in
  let recent = if t.next_order = 0 then 0 else Rng.int t.rng (max 1 t.next_order) in
  [|
    Txn.read (Kvstore.key ~part:w ~slot:(Layout.customer_slot c));
    Txn.read (Kvstore.key ~part:w ~slot:(Layout.order_slot recent));
  |]

(* Delivery: drain each district's oldest NEW-ORDER, updating order and
   customer rows — a 10-district write burst within one warehouse. *)
let delivery t =
  let w = home_warehouse t in
  let queue d = Txn.write (Kvstore.key ~part:w ~slot:(Layout.new_order_queue_slot d)) in
  let ops = Array.make (2 * districts) (queue 0) in
  for d = 0 to districts - 1 do
    let c = Rng.int t.rng customers_per_warehouse in
    ops.(2 * d) <- queue d;
    ops.((2 * d) + 1) <- Txn.write (Kvstore.key ~part:w ~slot:(Layout.customer_slot c))
  done;
  ops

(* StockLevel: read-only scan of recently-sold items' stock rows. *)
let stock_level t =
  let w = home_warehouse t in
  let d = Rng.int t.rng districts in
  let ops = Array.make 21 (Txn.read (Kvstore.key ~part:w ~slot:(Layout.district_slot d))) in
  for i = 1 to 20 do
    ops.(i) <- Txn.read (Kvstore.key ~part:w ~slot:(Layout.stock_slot (pick_item t)))
  done;
  ops

let next t =
  let ops =
    if t.p.full_mix then (
      let dice = Rng.int t.rng 100 in
      if dice < 45 then new_order t
      else if dice < 88 then payment t
      else if dice < 92 then order_status t
      else if dice < 96 then delivery t
      else stock_level t)
    else if t.p.payment_ratio > 0.0 && Rng.bernoulli t.rng t.p.payment_ratio then
      payment t
    else new_order t
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  Txn.make ~id ops
