module Rng = Lion_kernel.Rng
module Zipf = Lion_kernel.Zipf
module Kvstore = Lion_store.Kvstore

type params = {
  partitions : int;
  nodes : int;
  accounts_per_partition : int;
  hot_accounts : float;
  two_account_ratio : float;
  skew_factor : float;
  hot_node : int;
  hot_span : int;
}

let default_params ~partitions ~nodes =
  {
    partitions;
    nodes;
    accounts_per_partition = 100_000;
    hot_accounts = 0.8;
    two_account_ratio = 0.3;
    skew_factor = 0.0;
    hot_node = 0;
    hot_span = max 1 (partitions / nodes);
  }

module Layout = struct
  let checking_slot a = 2 * a
  let savings_slot a = (2 * a) + 1
end

type t = { p : params; rng : Rng.t; accounts : Zipf.t; mutable next_id : int }

let create ?(seed = 19) p =
  {
    p;
    rng = Rng.create seed;
    accounts = Zipf.create ~n:p.accounts_per_partition ~theta:p.hot_accounts;
    next_id = 0;
  }

let params t = t.p

let home_partition t =
  let p = t.p in
  if p.skew_factor > 0.0 && Rng.bernoulli t.rng p.skew_factor then (
    let i = Rng.int t.rng (max 1 p.hot_span) in
    (p.hot_node + (i * p.nodes)) mod p.partitions)
  else Rng.int t.rng p.partitions

(* The recurring partner lives in the next partition: same account
   rank, neighbouring range — the customer's standing payee. *)
let partner_partition t home = (home + 1) mod t.p.partitions

let account t part =
  let a = Zipf.sample t.accounts t.rng in
  (part, a)

let checking (part, a) = Kvstore.key ~part ~slot:(Layout.checking_slot a)
let savings (part, a) = Kvstore.key ~part ~slot:(Layout.savings_slot a)

let balance t acct =
  ignore t;
  [| Txn.read (checking acct); Txn.read (savings acct) |]

let deposit_checking t acct =
  ignore t;
  [| Txn.write (checking acct) |]

let transact_savings t acct =
  ignore t;
  [| Txn.read (savings acct); Txn.write (savings acct) |]

let write_check t acct =
  ignore t;
  [| Txn.read (savings acct); Txn.read (checking acct); Txn.write (checking acct) |]

let amalgamate t src dst =
  ignore t;
  [| Txn.write (checking src); Txn.write (savings src); Txn.write (checking dst) |]

let send_payment t src dst =
  ignore t;
  [| Txn.read (checking src); Txn.write (checking src); Txn.write (checking dst) |]

let next t =
  let home = home_partition t in
  let acct = account t home in
  let ops =
    if Rng.bernoulli t.rng t.p.two_account_ratio then (
      let partner = account t (partner_partition t home) in
      if Rng.bool t.rng then send_payment t acct partner
      else amalgamate t acct partner)
    else (
      match Rng.int t.rng 4 with
      | 0 -> balance t acct
      | 1 -> deposit_checking t acct
      | 2 -> transact_savings t acct
      | _ -> write_check t acct)
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  Txn.make ~id ops
