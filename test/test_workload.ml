(* Tests for the workload generators: transaction structure, YCSB
   distribution knobs, TPC-C shapes, dynamic schedules. *)

module Txn = Lion_workload.Txn
module Ycsb = Lion_workload.Ycsb
module Tpcc = Lion_workload.Tpcc
module Dynamic = Lion_workload.Dynamic
module Kvstore = Lion_store.Kvstore

let base = Ycsb.default_params ~partitions:16 ~nodes:4

(* --- txn --- *)

let test_txn_parts_dedup_sorted () =
  let k part slot = Kvstore.key ~part ~slot in
  let t =
    Txn.make ~id:0 [| Txn.read (k 3 1); Txn.write (k 1 2); Txn.read (k 3 9) |]
  in
  Alcotest.(check (list int)) "sorted distinct" [ 1; 3 ] t.Txn.parts;
  Alcotest.(check bool) "cross" true (Txn.is_cross_partition t)

let test_txn_single_partition () =
  let k slot = Kvstore.key ~part:2 ~slot in
  let t = Txn.make ~id:1 [| Txn.read (k 1); Txn.write (k 2) |] in
  Alcotest.(check bool) "not cross" false (Txn.is_cross_partition t);
  Alcotest.(check (list int)) "one part" [ 2 ] t.Txn.parts

let test_txn_key_partition () =
  let t =
    Txn.make ~id:2
      [| Txn.read (Kvstore.key ~part:5 ~slot:0); Txn.write (Kvstore.key ~part:5 ~slot:1) |]
  in
  Alcotest.(check int) "read keys" 1 (List.length (Txn.read_keys t));
  Alcotest.(check int) "write keys" 1 (List.length (Txn.write_keys t))

(* Operations at the edges of the packable key range keep their key
   and kind exactly, and a read never equals a write. *)
let prop_op_roundtrip =
  let field bound = QCheck.Gen.(oneof [ oneofl [ 0; 1; bound - 1; bound ]; int_range 0 bound ]) in
  QCheck.Test.make ~name:"ops round-trip key and kind" ~count:1000
    QCheck.(make Gen.(pair (field ((1 lsl 30) - 1)) (field ((1 lsl 32) - 1))))
    (fun (part, slot) ->
      let k = Kvstore.key ~part ~slot in
      let r = Txn.read k and w = Txn.write k in
      Txn.key_of r = k && Txn.key_of w = k && Txn.is_write w && (not (Txn.is_write r))
      && (r :> int) <> (w :> int))

let test_txn_unpackable_refused () =
  let bad = Kvstore.key ~part:(1 lsl 30) ~slot:0 in
  Alcotest.check_raises "read" (Invalid_argument "Txn: unpackable key") (fun () ->
      ignore (Txn.read bad));
  Alcotest.check_raises "write" (Invalid_argument "Txn: unpackable key") (fun () ->
      ignore (Txn.write bad))

(* --- ycsb --- *)

let test_ycsb_ops_count () =
  let gen = Ycsb.create base in
  for _ = 1 to 100 do
    let t = Ycsb.next gen in
    Alcotest.(check int) "10 ops" 10 (Array.length t.Txn.ops)
  done

let test_ycsb_no_cross_when_zero () =
  let gen = Ycsb.create { base with Ycsb.cross_ratio = 0.0 } in
  for _ = 1 to 200 do
    Alcotest.(check bool) "single partition" false (Txn.is_cross_partition (Ycsb.next gen))
  done

let test_ycsb_all_cross_when_one () =
  let gen = Ycsb.create { base with Ycsb.cross_ratio = 1.0 } in
  for _ = 1 to 200 do
    let t = Ycsb.next gen in
    Alcotest.(check int) "two partitions" 2 (List.length t.Txn.parts)
  done

let test_ycsb_neighbor_pairs () =
  let gen = Ycsb.create { base with Ycsb.cross_ratio = 1.0; neighbor_cross = true } in
  for _ = 1 to 200 do
    let t = Ycsb.next gen in
    match t.Txn.parts with
    | [ a; b ] ->
        Alcotest.(check bool) "adjacent (mod wrap)" true (b = a + 1 || (a = 0 && b = 15))
    | _ -> Alcotest.fail "expected two partitions"
  done

let test_ycsb_neighbor_pairs_cross_nodes_initially () =
  (* Round-robin layout puts p and p+1 on different nodes, which is the
     paper's "100% distributed" premise. *)
  let gen = Ycsb.create { base with Ycsb.cross_ratio = 1.0 } in
  let placement =
    Lion_store.Placement.create ~nodes:4 ~partitions:16 ~replicas:1 ~max_replicas:4 ()
  in
  for _ = 1 to 100 do
    let t = Ycsb.next gen in
    match t.Txn.parts with
    | [ a; b ] ->
        Alcotest.(check bool) "split across nodes" true
          (Lion_store.Placement.primary placement a
          <> Lion_store.Placement.primary placement b)
    | _ -> Alcotest.fail "expected a pair"
  done

let test_ycsb_skew_concentrates () =
  let gen = Ycsb.create { base with Ycsb.skew_factor = 0.9 } in
  let counts = Array.make 16 0 in
  for _ = 1 to 5_000 do
    let t = Ycsb.next gen in
    List.iter (fun p -> counts.(p) <- counts.(p) + 1) t.Txn.parts
  done;
  (* Hot node 0's partitions are 0,4,8,12. *)
  let hot = counts.(0) + counts.(4) + counts.(8) + counts.(12) in
  let total = Array.fold_left ( + ) 0 counts in
  Alcotest.(check bool) "hot partitions dominate" true
    (float_of_int hot /. float_of_int total > 0.75)

let test_ycsb_uniform_spreads () =
  let gen = Ycsb.create { base with Ycsb.skew_factor = 0.0 } in
  let counts = Array.make 16 0 in
  for _ = 1 to 8_000 do
    let t = Ycsb.next gen in
    List.iter (fun p -> counts.(p) <- counts.(p) + 1) t.Txn.parts
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "every partition touched" true (c > 100))
    counts

let test_ycsb_partition_offset_shifts () =
  let gen =
    Ycsb.create { base with Ycsb.skew_factor = 1.0; hot_span = 1; partition_offset = 5 }
  in
  for _ = 1 to 100 do
    let t = Ycsb.next gen in
    Alcotest.(check (list int)) "hot partition rotated" [ 5 ] t.Txn.parts
  done

let test_ycsb_write_ratio_extremes () =
  let all_reads = Ycsb.create { base with Ycsb.write_ratio = 0.0 } in
  let t = Ycsb.next all_reads in
  Alcotest.(check int) "no writes" 0 (List.length (Txn.write_keys t));
  let all_writes = Ycsb.create { base with Ycsb.write_ratio = 1.0 } in
  let t = Ycsb.next all_writes in
  Alcotest.(check int) "all writes" 10 (List.length (Txn.write_keys t))

let test_ycsb_ids_increment () =
  let gen = Ycsb.create base in
  let a = Ycsb.next gen and b = Ycsb.next gen in
  Alcotest.(check int) "sequential ids" (a.Txn.id + 1) b.Txn.id

let test_ycsb_set_params_switches () =
  let gen = Ycsb.create { base with Ycsb.cross_ratio = 0.0 } in
  ignore (Ycsb.next gen);
  Ycsb.set_params gen { base with Ycsb.cross_ratio = 1.0 };
  let t = Ycsb.next gen in
  Alcotest.(check bool) "now cross" true (Txn.is_cross_partition t)

(* --- tpcc --- *)

let tpcc_base = Tpcc.default_params ~warehouses:16 ~nodes:4

let test_tpcc_neworder_shape () =
  let gen = Tpcc.create { tpcc_base with Tpcc.cross_ratio = 0.0 } in
  for _ = 1 to 50 do
    let t = Tpcc.next gen in
    let n = Array.length t.Txn.ops in
    (* 4 header ops + 5..15 order lines. *)
    Alcotest.(check bool) "op count in range" true (n >= 9 && n <= 19);
    Alcotest.(check int) "single warehouse" 1 (List.length t.Txn.parts)
  done

let test_tpcc_cross_touches_remote () =
  let gen = Tpcc.create { tpcc_base with Tpcc.cross_ratio = 1.0 } in
  let crosses = ref 0 in
  for _ = 1 to 200 do
    if Txn.is_cross_partition (Tpcc.next gen) then incr crosses
  done;
  Alcotest.(check int) "all cross" 200 !crosses

let test_tpcc_district_hotspot () =
  let gen = Tpcc.create { tpcc_base with Tpcc.cross_ratio = 0.0 } in
  let t = Tpcc.next gen in
  let district_slots = List.init 10 Tpcc.Layout.district_slot in
  let has_district_write =
    List.exists (fun k -> List.mem (Kvstore.slot k) district_slots) (Txn.write_keys t)
  in
  Alcotest.(check bool) "district RMW present" true has_district_write

let test_tpcc_orders_unique () =
  let gen = Tpcc.create tpcc_base in
  let t1 = Tpcc.next gen and t2 = Tpcc.next gen in
  let order_slots txn =
    List.filter_map
      (fun k -> if Kvstore.slot k >= 10_000_000 then Some (Kvstore.slot k) else None)
      (Txn.write_keys txn)
  in
  let all = order_slots t1 @ order_slots t2 in
  Alcotest.(check int) "order rows never collide" (List.length all)
    (List.length (List.sort_uniq compare all))

let test_tpcc_payment_mix () =
  let gen = Tpcc.create { tpcc_base with Tpcc.payment_ratio = 1.0 } in
  for _ = 1 to 50 do
    let t = Tpcc.next gen in
    Alcotest.(check int) "payment has 3 ops" 3 (Array.length t.Txn.ops)
  done

let test_tpcc_skew_concentrates () =
  let gen = Tpcc.create { tpcc_base with Tpcc.skew_factor = 1.0; hot_span = 1 } in
  for _ = 1 to 50 do
    let t = Tpcc.next gen in
    Alcotest.(check bool) "home is hot warehouse" true (List.mem 0 t.Txn.parts)
  done

let test_tpcc_full_mix_shapes () =
  let gen = Tpcc.create ~seed:3 { tpcc_base with Tpcc.full_mix = true } in
  let saw_readonly = ref false and saw_delivery = ref false in
  for _ = 1 to 500 do
    let t = Tpcc.next gen in
    let writes = List.length (Txn.write_keys t) in
    if writes = 0 then saw_readonly := true;
    (* Delivery writes 2 rows per district = 20 writes exactly. *)
    if writes = 20 then saw_delivery := true
  done;
  Alcotest.(check bool) "read-only txns appear" true !saw_readonly;
  Alcotest.(check bool) "delivery bursts appear" true !saw_delivery

let test_tpcc_full_mix_ratio () =
  let gen = Tpcc.create ~seed:5 { tpcc_base with Tpcc.full_mix = true } in
  let neworder = ref 0 in
  let n = 2000 in
  for _ = 1 to n do
    let t = Tpcc.next gen in
    (* NewOrder inserts an order row. *)
    if
      List.exists (fun k -> Kvstore.slot k >= 10_000_000) (Txn.write_keys t)
    then incr neworder
  done;
  let ratio = float_of_int !neworder /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "NewOrder near 45%% (%.2f)" ratio)
    true
    (ratio > 0.38 && ratio < 0.52)

let test_tpcc_layout_disjoint () =
  Alcotest.(check bool) "warehouse/district disjoint" true
    (Tpcc.Layout.warehouse_slot < Tpcc.Layout.district_slot 0);
  Alcotest.(check bool) "district/customer disjoint" true
    (Tpcc.Layout.district_slot 9 < Tpcc.Layout.customer_slot 0);
  Alcotest.(check bool) "customer/stock disjoint" true
    (Tpcc.Layout.customer_slot 29_999 < Tpcc.Layout.stock_slot 0);
  Alcotest.(check bool) "stock/order disjoint" true
    (Tpcc.Layout.stock_slot 99_999 < Tpcc.Layout.order_slot 0)

let test_ycsb_workload_mixes () =
  let mix c = Ycsb.workload_mix ~partitions:16 ~nodes:4 c in
  Alcotest.(check (float 1e-9)) "A write-heavy" 0.5 (mix 'A').Ycsb.write_ratio;
  Alcotest.(check (float 1e-9)) "B read-mostly" 0.05 (mix 'B').Ycsb.write_ratio;
  Alcotest.(check (float 1e-9)) "C read-only" 0.0 (mix 'C').Ycsb.write_ratio;
  Alcotest.(check (float 1e-9)) "D steeper zipf" 0.99 (mix 'd').Ycsb.key_theta;
  Alcotest.check_raises "unknown letter"
    (Invalid_argument "Ycsb.workload_mix: unknown workload Z") (fun () ->
      ignore (mix 'Z'))

(* --- smallbank --- *)

module Smallbank = Lion_workload.Smallbank

let sb_base = Smallbank.default_params ~partitions:16 ~nodes:4

let test_smallbank_single_account_local () =
  let gen = Smallbank.create { sb_base with Smallbank.two_account_ratio = 0.0 } in
  for _ = 1 to 100 do
    let t = Smallbank.next gen in
    Alcotest.(check int) "single partition" 1 (List.length t.Txn.parts);
    Alcotest.(check bool) "1-3 ops" true
      (Array.length t.Txn.ops >= 1 && Array.length t.Txn.ops <= 3)
  done

let test_smallbank_two_account_crosses () =
  let gen = Smallbank.create { sb_base with Smallbank.two_account_ratio = 1.0 } in
  for _ = 1 to 100 do
    let t = Smallbank.next gen in
    match t.Txn.parts with
    | [ a; b ] -> Alcotest.(check bool) "partner is neighbour" true (b = a + 1 || (a = 0 && b = 15))
    | _ -> Alcotest.fail "expected two partitions"
  done

let test_smallbank_slots_distinct () =
  Alcotest.(check bool) "checking/savings disjoint" true
    (Smallbank.Layout.checking_slot 5 <> Smallbank.Layout.savings_slot 5);
  Alcotest.(check bool) "accounts disjoint" true
    (Smallbank.Layout.savings_slot 5 <> Smallbank.Layout.checking_slot 6)

let test_smallbank_skew () =
  let gen =
    Smallbank.create { sb_base with Smallbank.skew_factor = 1.0; hot_span = 1 }
  in
  for _ = 1 to 50 do
    let t = Smallbank.next gen in
    Alcotest.(check bool) "home is hot" true (List.mem 0 t.Txn.parts)
  done

(* --- dynamic --- *)

let sec = Lion_sim.Engine.seconds

let test_dynamic_phase_lookup () =
  let schedule = Dynamic.hotspot_position ~base ~period:(sec 10.0) in
  Alcotest.(check string) "phase A" "A:uniform-50"
    (Dynamic.phase_at schedule (sec 5.0)).Dynamic.name;
  Alcotest.(check string) "phase C" "C:skew-100"
    (Dynamic.phase_at schedule (sec 25.0)).Dynamic.name;
  Alcotest.(check string) "wraps to A" "A:uniform-50"
    (Dynamic.phase_at schedule (sec 45.0)).Dynamic.name

let test_dynamic_cycle_length () =
  let schedule = Dynamic.hotspot_position ~base ~period:(sec 10.0) in
  Alcotest.(check (float 1e-3)) "4 periods" (sec 40.0) (Dynamic.cycle_length schedule)

let test_dynamic_interval_shifts_hotspot () =
  let schedule = Dynamic.hotspot_interval ~base ~period:(sec 10.0) in
  let p0 = Dynamic.params_at schedule (sec 1.0) in
  let p1 = Dynamic.params_at schedule (sec 11.0) in
  Alcotest.(check bool) "offset moved" true
    (p0.Ycsb.partition_offset <> p1.Ycsb.partition_offset)

let test_dynamic_driver_switches_generator () =
  let schedule = Dynamic.hotspot_position ~base ~period:(sec 10.0) in
  let driver = Dynamic.Driver.create ~schedule ~gen:(Ycsb.create base) in
  (* Phase C is 100% cross. *)
  let t = Dynamic.Driver.next driver ~time:(sec 25.0) in
  ignore t;
  let crosses = ref 0 in
  for _ = 1 to 100 do
    if Txn.is_cross_partition (Dynamic.Driver.next driver ~time:(sec 25.0)) then incr crosses
  done;
  Alcotest.(check int) "C is all cross" 100 !crosses;
  Alcotest.(check string) "phase name" "C:skew-100"
    (Dynamic.Driver.phase_name driver ~time:(sec 25.0))

let test_dynamic_nonoverlapping_hotspots () =
  let schedule = Dynamic.hotspot_interval ~base ~period:(sec 10.0) in
  let parts_of time =
    let gen = Ycsb.create (Dynamic.params_at schedule time) in
    let s = Hashtbl.create 16 in
    for _ = 1 to 500 do
      List.iter (fun p -> Hashtbl.replace s p ()) (Ycsb.next gen).Txn.parts
    done;
    Hashtbl.fold (fun p () acc -> p :: acc) s []
  in
  let p0 = parts_of (sec 1.0) and p1 = parts_of (sec 11.0) in
  let overlap = List.filter (fun p -> List.mem p p1) p0 in
  (* Hotspot thirds are distinct; only the pair-neighbour boundary may
     overlap slightly. *)
  Alcotest.(check bool) "mostly disjoint" true
    (List.length overlap <= 2 + (List.length p0 / 4))

(* --- stream fingerprints --- *)

(* FNV-style fold of the first [n] transactions a generator yields: id,
   every operation (key and kind) and the partition list. A change to a
   draw, its order or the parts computation moves the digest. *)
let fingerprint gen n =
  let h = ref 0x84222325 in
  let mix x = h := (!h lxor x) * 0x100000001b3 in
  for _ = 1 to n do
    let t = gen ~time:0.0 in
    mix t.Txn.id;
    Array.iter (fun op -> mix (op : Txn.op :> int)) t.Txn.ops;
    mix (-1);
    List.iter mix t.Txn.parts;
    mix (-2)
  done;
  Printf.sprintf "%016x" !h

(* The first 100k transactions of each stream the benchmark cells and
   the compare goldens draw, pinned as digests: a generator rewrite
   must leave every one unchanged. *)
let test_stream_fingerprints () =
  let cfg = Lion_store.Config.default in
  let ycsb ~skew ~cross seed = Lion_harness.Workloads.ycsb ~seed ~skew ~cross cfg in
  let tpcc seed = Lion_harness.Workloads.tpcc ~seed ~skew:0.8 ~cross:0.5 cfg in
  List.iter
    (fun (name, gen, want) -> Alcotest.(check string) name want (fingerprint gen 100_000))
    [
      ("ycsb skewed seed 1", ycsb ~skew:0.8 ~cross:0.5 1, "5a544d4a75c54446");
      ("ycsb skewed seed 7", ycsb ~skew:0.8 ~cross:0.5 7, "5c36a8a4bcddacb9");
      ("ycsb uniform all-cross seed 1", ycsb ~skew:0.0 ~cross:1.0 1, "4df86a2a25a4a188");
      ("ycsb uniform all-cross seed 7", ycsb ~skew:0.0 ~cross:1.0 7, "498eb283b909ccfb");
      ("tpcc seed 1", tpcc 1, "47b59fe51d13e21f");
      ("tpcc seed 11", tpcc 11, "7e1faf0ebe268164");
    ]

(* --- property tests --- *)

let prop_ycsb_keys_in_bounds =
  QCheck.Test.make ~name:"ycsb keys stay within configured bounds" ~count:100
    QCheck.(
      quad (int_range 1 32) (float_range 0.0 1.0) (float_range 0.0 1.0) (int_range 0 100))
    (fun (partitions, skew, cross, seed) ->
      let params =
        {
          (Ycsb.default_params ~partitions ~nodes:4) with
          Ycsb.skew_factor = skew;
          cross_ratio = cross;
          keys_per_partition = 1000;
        }
      in
      let gen = Ycsb.create ~seed params in
      List.for_all
        (fun _ ->
          let t = Ycsb.next gen in
          Array.for_all
            (fun op ->
              let k = Txn.key_of op in
              Kvstore.part k >= 0 && Kvstore.part k < partitions && Kvstore.slot k >= 0
              && Kvstore.slot k < 1000)
            t.Txn.ops)
        (List.init 20 Fun.id))

let prop_ycsb_parts_match_ops =
  QCheck.Test.make ~name:"txn parts equal distinct op partitions" ~count:100
    QCheck.(pair (float_range 0.0 1.0) (int_range 0 100))
    (fun (cross, seed) ->
      let gen = Ycsb.create ~seed { base with Ycsb.cross_ratio = cross } in
      List.for_all
        (fun _ ->
          let t = Ycsb.next gen in
          t.Txn.parts = Txn.parts_of_ops t.Txn.ops)
        (List.init 20 Fun.id))

let prop_tpcc_within_warehouse_bounds =
  QCheck.Test.make ~name:"tpcc partitions stay within warehouse count" ~count:100
    QCheck.(triple (int_range 1 32) (float_range 0.0 1.0) (int_range 0 100))
    (fun (warehouses, cross, seed) ->
      let params =
        { (Tpcc.default_params ~warehouses ~nodes:4) with Tpcc.cross_ratio = cross }
      in
      let gen = Tpcc.create ~seed params in
      List.for_all
        (fun _ ->
          let t = Tpcc.next gen in
          List.for_all (fun p -> p >= 0 && p < warehouses) t.Txn.parts)
        (List.init 20 Fun.id))

let () =
  Alcotest.run "lion_workload"
    [
      ( "txn",
        [
          Alcotest.test_case "parts dedup+sort" `Quick test_txn_parts_dedup_sorted;
          Alcotest.test_case "single partition" `Quick test_txn_single_partition;
          Alcotest.test_case "read/write key split" `Quick test_txn_key_partition;
          Alcotest.test_case "unpackable key refused" `Quick test_txn_unpackable_refused;
        ] );
      ( "ycsb",
        [
          Alcotest.test_case "op count" `Quick test_ycsb_ops_count;
          Alcotest.test_case "cross 0" `Quick test_ycsb_no_cross_when_zero;
          Alcotest.test_case "cross 1" `Quick test_ycsb_all_cross_when_one;
          Alcotest.test_case "neighbor pairing" `Quick test_ycsb_neighbor_pairs;
          Alcotest.test_case "pairs split across nodes" `Quick
            test_ycsb_neighbor_pairs_cross_nodes_initially;
          Alcotest.test_case "skew concentrates" `Quick test_ycsb_skew_concentrates;
          Alcotest.test_case "uniform spreads" `Quick test_ycsb_uniform_spreads;
          Alcotest.test_case "partition offset" `Quick test_ycsb_partition_offset_shifts;
          Alcotest.test_case "write ratio extremes" `Quick test_ycsb_write_ratio_extremes;
          Alcotest.test_case "ids increment" `Quick test_ycsb_ids_increment;
          Alcotest.test_case "set_params switches" `Quick test_ycsb_set_params_switches;
          Alcotest.test_case "workload mixes" `Quick test_ycsb_workload_mixes;
          Alcotest.test_case "stream fingerprints" `Quick test_stream_fingerprints;
        ] );
      ( "tpcc",
        [
          Alcotest.test_case "neworder shape" `Quick test_tpcc_neworder_shape;
          Alcotest.test_case "cross touches remote" `Quick test_tpcc_cross_touches_remote;
          Alcotest.test_case "district hotspot" `Quick test_tpcc_district_hotspot;
          Alcotest.test_case "orders unique" `Quick test_tpcc_orders_unique;
          Alcotest.test_case "payment mix" `Quick test_tpcc_payment_mix;
          Alcotest.test_case "skew concentrates" `Quick test_tpcc_skew_concentrates;
          Alcotest.test_case "full mix shapes" `Quick test_tpcc_full_mix_shapes;
          Alcotest.test_case "full mix ratio" `Quick test_tpcc_full_mix_ratio;
          Alcotest.test_case "layout disjoint" `Quick test_tpcc_layout_disjoint;
        ] );
      ( "smallbank",
        [
          Alcotest.test_case "single account local" `Quick test_smallbank_single_account_local;
          Alcotest.test_case "two-account crosses" `Quick test_smallbank_two_account_crosses;
          Alcotest.test_case "slot layout" `Quick test_smallbank_slots_distinct;
          Alcotest.test_case "skew" `Quick test_smallbank_skew;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "phase lookup" `Quick test_dynamic_phase_lookup;
          Alcotest.test_case "cycle length" `Quick test_dynamic_cycle_length;
          Alcotest.test_case "interval shifts hotspot" `Quick
            test_dynamic_interval_shifts_hotspot;
          Alcotest.test_case "driver switches" `Quick test_dynamic_driver_switches_generator;
          Alcotest.test_case "non-overlapping hotspots" `Quick
            test_dynamic_nonoverlapping_hotspots;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ycsb_keys_in_bounds;
            prop_ycsb_parts_match_ops;
            prop_tpcc_within_warehouse_bounds;
            prop_op_roundtrip;
          ] );
    ]
