(* Tests for the workload analysis stack: heat graph, clump generation,
   cost model (Eqs. 3-4), the rearrangement algorithm (Algorithm 1),
   plans and the Schism baseline. *)

module Heatgraph = Lion_analysis.Heatgraph
module Clump = Lion_analysis.Clump
module Costmodel = Lion_analysis.Costmodel
module Rearrange = Lion_analysis.Rearrange
module Plan = Lion_analysis.Plan
module Schism = Lion_analysis.Schism
module Placement = Lion_store.Placement

let mk_placement ?(nodes = 4) ?(partitions = 8) ?(replicas = 2) () =
  Placement.create ~nodes ~partitions ~replicas ~max_replicas:4 ()

(* --- heatgraph --- *)

let test_graph_accumulates () =
  let g = Heatgraph.create ~partitions:8 in
  Heatgraph.add_txn g ~parts:[ 0; 1 ];
  Heatgraph.add_txn g ~parts:[ 0; 1 ];
  Heatgraph.add_txn g ~parts:[ 2 ];
  Alcotest.(check (float 1e-9)) "vertex weight" 2.0 (Heatgraph.vertex_weight g 0);
  Alcotest.(check (float 1e-9)) "edge weight" 2.0 (Heatgraph.edge_weight g 0 1);
  Alcotest.(check (float 1e-9)) "symmetric" 2.0 (Heatgraph.edge_weight g 1 0);
  Alcotest.(check (float 1e-9)) "no edge" 0.0 (Heatgraph.edge_weight g 0 2)

let test_graph_triple_txn_pairs () =
  let g = Heatgraph.create ~partitions:8 in
  Heatgraph.add_txn g ~parts:[ 0; 1; 2 ];
  Alcotest.(check int) "three pairwise edges" 3 (Heatgraph.edge_count g);
  Alcotest.(check (float 1e-9)) "each pair" 1.0 (Heatgraph.edge_weight g 1 2)

let test_graph_cross_boost () =
  let g = Heatgraph.create ~partitions:8 in
  let p = mk_placement () in
  (* Partitions 0 and 4 share node 0; 0 and 1 are on different nodes. *)
  Heatgraph.add_txn g ~parts:[ 0; 4 ];
  Heatgraph.add_txn g ~parts:[ 0; 1 ];
  Alcotest.(check (float 1e-9)) "same node unboosted" 1.0
    (Heatgraph.effective_edge_weight g ~placement:p ~cross_boost:4.0 0 4);
  Alcotest.(check (float 1e-9)) "cross node boosted" 4.0
    (Heatgraph.effective_edge_weight g ~placement:p ~cross_boost:4.0 0 1)

let test_graph_predicted_merge () =
  let g = Heatgraph.create ~partitions:8 in
  Heatgraph.add_predicted g ~parts:[ 2; 3 ] ~weight:2.5;
  Alcotest.(check (float 1e-9)) "predicted edge" 2.5 (Heatgraph.edge_weight g 2 3);
  Heatgraph.add_predicted g ~parts:[ 2; 3 ] ~weight:0.0;
  Alcotest.(check (float 1e-9)) "zero weight ignored" 2.5 (Heatgraph.edge_weight g 2 3)

let test_graph_hottest_first () =
  let g = Heatgraph.create ~partitions:8 in
  Heatgraph.add_txn g ~parts:[ 5 ];
  Heatgraph.add_txn g ~parts:[ 3 ];
  Heatgraph.add_txn g ~parts:[ 3 ];
  Alcotest.(check (list int)) "sorted by heat" [ 3; 5 ] (Heatgraph.hottest_first g)

let test_graph_mean_edge_weight () =
  let g = Heatgraph.create ~partitions:8 in
  Heatgraph.add_txn g ~parts:[ 0; 1 ];
  Heatgraph.add_txn g ~parts:[ 0; 1 ];
  Heatgraph.add_txn g ~parts:[ 2; 3 ];
  Alcotest.(check (float 1e-9)) "mean" 1.5 (Heatgraph.mean_edge_weight g)

let test_graph_clear () =
  let g = Heatgraph.create ~partitions:4 in
  Heatgraph.add_txn g ~parts:[ 0; 1 ];
  Heatgraph.clear g;
  Alcotest.(check (float 1e-9)) "vertices cleared" 0.0 (Heatgraph.vertex_weight g 0);
  Alcotest.(check int) "edges cleared" 0 (Heatgraph.edge_count g)

(* The heat graph as it was kept before edge weights moved into mutable
   cells: one [(int, float) Hashtbl.t] per vertex, each bump replacing
   the sum. Repeated bumps must leave the same weights, neighbour lists
   and (summed in the same table order) the same mean, bit for bit. *)
module Reference_graph = struct
  type t = { adj : (int, float) Hashtbl.t array }

  let create ~partitions = { adj = Array.init partitions (fun _ -> Hashtbl.create 8) }

  let bump_edge t u v w =
    let upd a b =
      let cur = Option.value ~default:0.0 (Hashtbl.find_opt t.adj.(a) b) in
      Hashtbl.replace t.adj.(a) b (cur +. w)
    in
    upd u v;
    upd v u

  let add_weighted t parts w =
    let rec pairs = function
      | [] -> ()
      | p :: rest ->
          List.iter (fun q -> bump_edge t p q w) rest;
          pairs rest
    in
    pairs parts

  let edge_weight t u v = Option.value ~default:0.0 (Hashtbl.find_opt t.adj.(u) v)
  let neighbors t p = Hashtbl.fold (fun q _ acc -> q :: acc) t.adj.(p) [] |> List.sort compare

  let mean_edge_weight t =
    let total = ref 0.0 and count = ref 0 in
    Array.iter
      (fun tbl ->
        Hashtbl.iter
          (fun _ w ->
            total := !total +. w;
            incr count)
          tbl)
      t.adj;
    if !count = 0 then 0.0 else !total /. float_of_int !count
end

let test_graph_matches_reference () =
  let partitions = 24 in
  let g = Heatgraph.create ~partitions and r = Reference_graph.create ~partitions in
  let rng = Lion_kernel.Rng.create 5 in
  for i = 1 to 2_000 do
    let n = 1 + Lion_kernel.Rng.int rng 4 in
    let parts =
      List.sort_uniq compare (List.init n (fun _ -> Lion_kernel.Rng.int rng partitions))
    in
    (* Odd steps add predicted weight, so the sums are not integers and
       their order shows in the mean. *)
    if i mod 2 = 0 then (
      Heatgraph.add_txn g ~parts;
      Reference_graph.add_weighted r parts 1.0)
    else (
      let weight = 0.1 +. Lion_kernel.Rng.float rng 1.0 in
      Heatgraph.add_predicted g ~parts ~weight;
      Reference_graph.add_weighted r parts weight)
  done;
  for u = 0 to partitions - 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "neighbors %d" u)
      (Reference_graph.neighbors r u) (Heatgraph.neighbors g u);
    for v = 0 to partitions - 1 do
      if Heatgraph.edge_weight g u v <> Reference_graph.edge_weight r u v then
        Alcotest.failf "edge (%d, %d): %h <> %h" u v (Heatgraph.edge_weight g u v)
          (Reference_graph.edge_weight r u v)
    done
  done;
  let mean = Heatgraph.mean_edge_weight g and want = Reference_graph.mean_edge_weight r in
  if mean <> want then Alcotest.failf "mean edge weight %h <> %h" mean want

(* --- clumps --- *)

let test_clumps_group_hot_pairs () =
  let g = Heatgraph.create ~partitions:8 in
  let p = mk_placement () in
  for _ = 1 to 10 do
    Heatgraph.add_txn g ~parts:[ 0; 1 ]
  done;
  Heatgraph.add_txn g ~parts:[ 2 ];
  let clumps = Clump.generate g ~placement:p ~alpha:5.0 ~cross_boost:1.0 in
  let pair = List.find (fun (c : Clump.t) -> List.length c.Clump.pids = 2) clumps in
  Alcotest.(check (list int)) "hot pair clumped" [ 0; 1 ] pair.Clump.pids;
  Alcotest.(check (float 1e-9)) "weight summed" 20.0 pair.Clump.w

let test_clumps_alpha_filters () =
  let g = Heatgraph.create ~partitions:8 in
  let p = mk_placement () in
  Heatgraph.add_txn g ~parts:[ 0; 1 ];
  let clumps = Clump.generate g ~placement:p ~alpha:5.0 ~cross_boost:1.0 in
  List.iter
    (fun (c : Clump.t) ->
      Alcotest.(check int) "weak edges give singletons" 1 (List.length c.Clump.pids))
    clumps

let test_clumps_cover_all_hot_vertices_once () =
  let g = Heatgraph.create ~partitions:16 in
  let p = mk_placement ~partitions:16 () in
  for i = 0 to 14 do
    Heatgraph.add_txn g ~parts:[ i; i + 1 ]
  done;
  let clumps = Clump.generate g ~placement:p ~alpha:0.5 ~cross_boost:1.0 in
  let all = List.concat_map (fun (c : Clump.t) -> c.Clump.pids) clumps in
  Alcotest.(check int) "every hot vertex once" 16 (List.length all);
  Alcotest.(check int) "no duplicates" 16 (List.length (List.sort_uniq compare all))

let test_clumps_max_weight_cap () =
  let g = Heatgraph.create ~partitions:16 in
  let p = mk_placement ~partitions:16 () in
  (* A chain: every consecutive pair heavily co-accessed. *)
  for i = 0 to 14 do
    for _ = 1 to 10 do
      Heatgraph.add_txn g ~parts:[ i; i + 1 ]
    done
  done;
  let clumps = Clump.generate ~max_weight:100.0 g ~placement:p ~alpha:1.0 ~cross_boost:1.0 in
  Alcotest.(check bool) "chain sliced" true (List.length clumps > 1);
  List.iter
    (fun (c : Clump.t) ->
      Alcotest.(check bool) "cap respected" true (c.Clump.w <= 100.0 +. 1e-9))
    clumps

let test_clump_total_weight () =
  let clumps =
    [ { Clump.pids = [ 0 ]; w = 3.0; dest = -1 }; { Clump.pids = [ 1 ]; w = 2.0; dest = -1 } ]
  in
  Alcotest.(check (float 1e-9)) "sum" 5.0 (Clump.total_weight clumps)

(* --- cost model --- *)

let freq_zero _ = 0.0

let test_cost_zero_when_primary_local () =
  let p = mk_placement () in
  let cm = Costmodel.make ~freq:freq_zero () in
  (* Partition 0's primary is node 0. *)
  Alcotest.(check (float 1e-9)) "free" 0.0
    (Costmodel.clump_cost cm p ~parts:[ 0 ] ~node:0)

let test_cost_remaster_when_secondary () =
  let p = mk_placement () in
  let cm = Costmodel.make ~freq:freq_zero () in
  (* Node 1 holds a secondary of partition 0; f = 0 so cnt_r = 1. *)
  Alcotest.(check (float 1e-9)) "w_r" 1.0 (Costmodel.clump_cost cm p ~parts:[ 0 ] ~node:1)

let test_cost_migration_when_absent () =
  let p = mk_placement () in
  let cm = Costmodel.make ~freq:freq_zero () in
  (* Node 3 has no replica of partition 0. *)
  Alcotest.(check (float 1e-9)) "w_m" 10.0 (Costmodel.clump_cost cm p ~parts:[ 0 ] ~node:3)

let test_cost_hot_primary_remaster_pricier () =
  let p = mk_placement () in
  let cm_hot = Costmodel.make ~freq:(fun _ -> 1.0) () in
  let cm_cold = Costmodel.make ~freq:freq_zero () in
  let hot = Costmodel.cnt_r cm_hot p ~part:0 ~node:1 in
  let cold = Costmodel.cnt_r cm_cold p ~part:0 ~node:1 in
  Alcotest.(check bool) "1+log2(f+1) grows" true (hot > cold);
  Alcotest.(check (float 1e-9)) "cold is 1" 1.0 cold;
  Alcotest.(check (float 1e-9)) "hot is 2" 2.0 hot

let test_find_dst_prefers_current_primary () =
  let p = mk_placement () in
  let cm = Costmodel.make ~freq:freq_zero () in
  let node, cost = Costmodel.find_dst_node cm p ~parts:[ 0; 4 ] in
  (* Both 0 and 4 have primaries on node 0. *)
  Alcotest.(check int) "home node" 0 node;
  Alcotest.(check (float 1e-9)) "zero cost" 0.0 cost

let test_route_cost_orders_options () =
  let p = mk_placement () in
  let cm = Costmodel.make ~freq:freq_zero () in
  (* Transaction on partitions 0 (primary n0, secondary n1) and
     1 (primary n1, secondary n2). *)
  let c0 = Costmodel.txn_route_cost cm p ~parts:[ 0; 1 ] ~node:0 in
  let c1 = Costmodel.txn_route_cost cm p ~parts:[ 0; 1 ] ~node:1 in
  let c3 = Costmodel.txn_route_cost cm p ~parts:[ 0; 1 ] ~node:3 in
  (* Node 1 holds primary of 1 and secondary of 0 -> one remaster.
     Node 0 holds primary of 0, nothing of 1 -> one remote access.
     Node 3 holds nothing -> two remote accesses. *)
  Alcotest.(check bool) "remaster cheaper than remote" true (c1 < c0);
  Alcotest.(check bool) "fewer replicas pricier" true (c0 < c3)

(* --- rearrangement (Algorithm 1) --- *)

let test_rearrange_respects_costs () =
  let p = mk_placement () in
  let cm = Costmodel.make ~freq:freq_zero () in
  let clumps = [ { Clump.pids = [ 0; 4 ]; w = 1.0; dest = -1 } ] in
  let r = Rearrange.rearrange cm p clumps () in
  Alcotest.(check int) "stays at free node" 0 (snd (List.hd r.Rearrange.assignments))

let test_rearrange_balances_load () =
  let p = mk_placement ~partitions:16 () in
  let cm = Costmodel.make ~freq:freq_zero () in
  (* Eight equal clumps whose primaries all sit on node 0 — without
     fine-tuning they would all stay there. *)
  let clumps =
    List.init 8 (fun i -> { Clump.pids = [ (i * 4) mod 16 ]; w = 10.0; dest = -1 })
  in
  let r = Rearrange.rearrange cm p clumps ~epsilon:0.1 () in
  let avg = 80.0 /. 4.0 in
  Alcotest.(check bool) "balanced" true r.Rearrange.balanced;
  Array.iter
    (fun b -> Alcotest.(check bool) "under theta" true (b <= avg *. 1.1 +. 1e-6))
    r.Rearrange.balance;
  Alcotest.(check bool) "moves happened" true (r.Rearrange.fine_tune_moves > 0)

let test_rearrange_step_budget () =
  let p = mk_placement ~partitions:16 () in
  let cm = Costmodel.make ~freq:freq_zero () in
  let clumps =
    List.init 8 (fun i -> { Clump.pids = [ (i * 4) mod 16 ]; w = 10.0; dest = -1 })
  in
  let r = Rearrange.rearrange cm p clumps ~epsilon:0.01 ~max_steps:1 () in
  Alcotest.(check bool) "at most one move" true (r.Rearrange.fine_tune_moves <= 1)

let test_rearrange_immovable_giant_clump () =
  let p = mk_placement () in
  let cm = Costmodel.make ~freq:freq_zero () in
  (* One giant clump cannot be balanced: the algorithm must terminate
     and report imbalance rather than loop. *)
  let clumps = [ { Clump.pids = [ 0 ]; w = 100.0; dest = -1 } ] in
  let r = Rearrange.rearrange cm p clumps ~epsilon:0.1 () in
  Alcotest.(check bool) "terminates unbalanced" false r.Rearrange.balanced

let test_plan_cost_monotone () =
  let p = mk_placement () in
  let cm = Costmodel.make ~freq:freq_zero () in
  let c = { Clump.pids = [ 0 ]; w = 1.0; dest = -1 } in
  let at_home = Rearrange.plan_cost cm p [ (c, 0) ] in
  let at_secondary = Rearrange.plan_cost cm p [ (c, 1) ] in
  let at_absent = Rearrange.plan_cost cm p [ (c, 3) ] in
  Alcotest.(check bool) "home <= secondary <= absent" true
    (at_home <= at_secondary && at_secondary <= at_absent)

(* --- plans --- *)

let test_plan_actions_derived () =
  let p = mk_placement () in
  let c = { Clump.pids = [ 0; 1 ]; w = 1.0; dest = -1 } in
  (* Destination node 3 has no replica of 0 or 1. *)
  let plan = Plan.of_assignments p [ (c, 3) ] ~eager_remaster:false in
  Alcotest.(check int) "two adds" 2 plan.Plan.adds;
  Alcotest.(check int) "no eager remasters" 0 plan.Plan.remasters

let test_plan_eager_remaster_for_secondary () =
  let p = mk_placement () in
  let c = { Clump.pids = [ 0 ]; w = 1.0; dest = -1 } in
  (* Node 1 holds a secondary of 0. *)
  let plan = Plan.of_assignments p [ (c, 1) ] ~eager_remaster:true in
  Alcotest.(check int) "no add needed" 0 plan.Plan.adds;
  Alcotest.(check int) "one remaster" 1 plan.Plan.remasters

let test_plan_empty_when_already_placed () =
  let p = mk_placement () in
  let c = { Clump.pids = [ 0; 4 ]; w = 1.0; dest = -1 } in
  let plan = Plan.of_assignments p [ (c, 0) ] ~eager_remaster:true in
  Alcotest.(check bool) "empty plan" true (Plan.is_empty plan)

(* --- schism --- *)

let test_schism_balances_by_weight () =
  let clumps = List.init 8 (fun i -> { Clump.pids = [ i ]; w = 10.0; dest = -1 }) in
  let assignments = Schism.assign clumps ~nodes:4 in
  let load = Array.make 4 0.0 in
  List.iter (fun ((c : Clump.t), n) -> load.(n) <- load.(n) +. c.Clump.w) assignments;
  Array.iter (fun l -> Alcotest.(check (float 1e-9)) "even split" 20.0 l) load

let test_schism_ignores_placement_cost () =
  (* Schism sends the largest clump to node 0 regardless of where its
     replicas already live — the "unnecessary migrations" behaviour. *)
  let clumps =
    [
      { Clump.pids = [ 3 ]; w = 100.0; dest = -1 };
      { Clump.pids = [ 0 ]; w = 1.0; dest = -1 };
    ]
  in
  let assignments = Schism.assign clumps ~nodes:4 in
  let big = List.find (fun ((c : Clump.t), _) -> c.Clump.w = 100.0) assignments in
  Alcotest.(check int) "largest first to node 0" 0 (snd big)

(* --- property tests --- *)

let txn_batch_gen =
  (* Random batches of partition sets over 16 partitions. *)
  QCheck.(list_of_size (Gen.int_range 1 60) (list_of_size (Gen.int_range 1 4) (int_range 0 15)))

let prop_clumps_partition_hot_vertices =
  QCheck.Test.make ~name:"clumps cover each hot vertex exactly once" ~count:100
    txn_batch_gen
    (fun batch ->
      let g = Heatgraph.create ~partitions:16 in
      List.iter (fun parts -> Heatgraph.add_txn g ~parts) batch;
      let p = mk_placement ~partitions:16 () in
      let clumps = Clump.generate g ~placement:p ~alpha:1.0 ~cross_boost:4.0 in
      let all = List.concat_map (fun (c : Clump.t) -> c.Clump.pids) clumps in
      let hot = Heatgraph.hottest_first g in
      List.length all = List.length hot
      && List.sort compare all = List.sort compare hot)

let prop_rearrange_assigns_valid_nodes =
  QCheck.Test.make ~name:"rearrangement destinations are valid nodes" ~count:100
    txn_batch_gen
    (fun batch ->
      let g = Heatgraph.create ~partitions:16 in
      List.iter (fun parts -> Heatgraph.add_txn g ~parts) batch;
      let p = mk_placement ~partitions:16 () in
      let clumps = Clump.generate g ~placement:p ~alpha:1.0 ~cross_boost:4.0 in
      let r = Rearrange.rearrange (Costmodel.make ~freq:freq_zero ()) p clumps () in
      List.for_all (fun (_, n) -> n >= 0 && n < 4) r.Rearrange.assignments)

let prop_rearrange_balance_sums_to_total =
  QCheck.Test.make ~name:"balance factors sum to total clump weight" ~count:100
    txn_batch_gen
    (fun batch ->
      let g = Heatgraph.create ~partitions:16 in
      List.iter (fun parts -> Heatgraph.add_txn g ~parts) batch;
      let p = mk_placement ~partitions:16 () in
      let clumps = Clump.generate g ~placement:p ~alpha:1.0 ~cross_boost:4.0 in
      let r = Rearrange.rearrange (Costmodel.make ~freq:freq_zero ()) p clumps () in
      let total = Clump.total_weight clumps in
      Float.abs (Array.fold_left ( +. ) 0.0 r.Rearrange.balance -. total) < 1e-6)

let prop_cost_nonnegative =
  QCheck.Test.make ~name:"clump cost is non-negative" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 5) (int_range 0 7)) (int_range 0 3))
    (fun (parts, node) ->
      let p = mk_placement () in
      let cm = Costmodel.make ~freq:(fun v -> float_of_int v /. 8.0) () in
      Costmodel.clump_cost cm p ~parts ~node >= 0.0
      && Costmodel.txn_route_cost cm p ~parts ~node >= 0.0)

(* Random cost-model inputs: a transaction's partitions, a node, a
   per-partition access frequency in [0, 1] and a WAN factor >= 1. *)
let cost_input_gen =
  QCheck.(
    quad
      (list_of_size (Gen.int_range 1 5) (int_range 0 7))
      (int_range 0 3)
      (array_of_size (Gen.return 8) (float_range 0.0 1.0))
      (float_range 1.0 64.0))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_one_region_wan_is_region_free =
  QCheck.Test.make ~name:"one-region WAN clump cost equals region-free, bit for bit"
    ~count:300 cost_input_gen
    (fun (parts, node, f, factor) ->
      let p = mk_placement () in
      let freq v = f.(v) in
      let free = Costmodel.make ~freq () in
      let one_region = Costmodel.make ~wan:{ Costmodel.region_of = (fun _ -> 0); factor } ~freq () in
      same_bits
        (Costmodel.clump_cost free p ~parts ~node)
        (Costmodel.clump_cost one_region p ~parts ~node))

(* Make [node] the primary of [part], copying a secondary there first
   when it holds no replica. *)
let promote p ~part ~node =
  if not (Placement.has_replica p ~part ~node) then Placement.add_secondary p ~part ~node;
  Placement.remaster p ~part ~node

let prop_more_primaries_never_cost_more =
  QCheck.Test.make ~name:"one more local primary never raises route or clump cost"
    ~count:300
    QCheck.(
      triple cost_input_gen
        (list_of_size (Gen.int_range 0 8) (pair (int_range 0 7) (int_range 0 3)))
        (pair bool (int_range 0 4)))
    (fun ((parts, node, f, factor), moves, (geo, pick)) ->
      let p = mk_placement () in
      List.iter (fun (part, node) -> promote p ~part ~node) moves;
      let freq v = f.(v) in
      let wan = if geo then Some { Costmodel.region_of = (fun n -> n / 2); factor } else None in
      let cm = Costmodel.make ?wan ~freq () in
      match List.filter (fun part -> not (Placement.has_primary p ~part ~node)) parts with
      | [] -> true
      | remote ->
          let route0 = Costmodel.txn_route_cost cm p ~parts ~node in
          let clump0 = Costmodel.clump_cost cm p ~parts ~node in
          promote p ~part:(List.nth remote (pick mod List.length remote)) ~node;
          Costmodel.txn_route_cost cm p ~parts ~node <= route0
          && Costmodel.clump_cost cm p ~parts ~node <= clump0)

(* The WAN factor [Planner.create] hands the cost model is the WAN/LAN
   latency ratio clamped to [1, 64], for any geo layout: a WAN latency
   of 0, one below [Config.net_latency], ordinary ones and very large
   ones (infinity included). *)
let prop_wan_factor_clamped =
  QCheck.Test.make ~name:"planner's WAN factor lies in [1, 64]" ~count:100
    QCheck.(
      quad (int_range 2 4)
        (oneof
           [
             always 0.0;
             float_bound_exclusive Lion_store.Config.net_latency;
             float_range 0.0 10_000.0;
             float_range 1e6 1e300;
             always Float.infinity;
           ])
        (float_bound_inclusive 1.0) (int_range 0 3))
    (fun (regions, wan_latency, wan_per_byte, min_regions) ->
      let cfg =
        {
          Lion_store.Config.default with
          geo = Some { Lion_store.Config.regions; wan_latency; wan_per_byte; min_regions };
        }
      in
      let cl = Lion_store.Cluster.create ~seed:1 cfg in
      let planner =
        Lion_core.Planner.create
          { Lion_core.Planner.default_config with w_p = 0.0 }
          cl
      in
      match (Lion_core.Planner.cost_model planner).Costmodel.wan with
      | None -> QCheck.Test.fail_report "a geo layout built no WAN term"
      | Some { Costmodel.factor; _ } -> 1.0 <= factor && factor <= 64.0)

let () =
  Alcotest.run "lion_analysis"
    [
      ( "heatgraph",
        [
          Alcotest.test_case "accumulates" `Quick test_graph_accumulates;
          Alcotest.test_case "triple txn pairs" `Quick test_graph_triple_txn_pairs;
          Alcotest.test_case "cross-node boost" `Quick test_graph_cross_boost;
          Alcotest.test_case "predicted merge" `Quick test_graph_predicted_merge;
          Alcotest.test_case "hottest first" `Quick test_graph_hottest_first;
          Alcotest.test_case "mean edge weight" `Quick test_graph_mean_edge_weight;
          Alcotest.test_case "clear" `Quick test_graph_clear;
          Alcotest.test_case "matches reference tables" `Quick test_graph_matches_reference;
        ] );
      ( "clumps",
        [
          Alcotest.test_case "groups hot pairs" `Quick test_clumps_group_hot_pairs;
          Alcotest.test_case "alpha filters" `Quick test_clumps_alpha_filters;
          Alcotest.test_case "covers vertices once" `Quick
            test_clumps_cover_all_hot_vertices_once;
          Alcotest.test_case "max weight cap" `Quick test_clumps_max_weight_cap;
          Alcotest.test_case "total weight" `Quick test_clump_total_weight;
        ] );
      ( "costmodel",
        [
          Alcotest.test_case "primary free" `Quick test_cost_zero_when_primary_local;
          Alcotest.test_case "secondary costs w_r" `Quick test_cost_remaster_when_secondary;
          Alcotest.test_case "absent costs w_m" `Quick test_cost_migration_when_absent;
          Alcotest.test_case "hot primary pricier" `Quick
            test_cost_hot_primary_remaster_pricier;
          Alcotest.test_case "find_dst prefers home" `Quick test_find_dst_prefers_current_primary;
          Alcotest.test_case "route cost ordering" `Quick test_route_cost_orders_options;
        ] );
      ( "rearrange",
        [
          Alcotest.test_case "respects costs" `Quick test_rearrange_respects_costs;
          Alcotest.test_case "balances load" `Quick test_rearrange_balances_load;
          Alcotest.test_case "step budget" `Quick test_rearrange_step_budget;
          Alcotest.test_case "giant clump terminates" `Quick
            test_rearrange_immovable_giant_clump;
          Alcotest.test_case "plan cost monotone" `Quick test_plan_cost_monotone;
        ] );
      ( "plan",
        [
          Alcotest.test_case "actions derived" `Quick test_plan_actions_derived;
          Alcotest.test_case "eager remaster" `Quick test_plan_eager_remaster_for_secondary;
          Alcotest.test_case "empty when placed" `Quick test_plan_empty_when_already_placed;
        ] );
      ( "schism",
        [
          Alcotest.test_case "balances by weight" `Quick test_schism_balances_by_weight;
          Alcotest.test_case "ignores placement" `Quick test_schism_ignores_placement_cost;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_clumps_partition_hot_vertices;
            prop_rearrange_assigns_valid_nodes;
            prop_rearrange_balance_sums_to_total;
            prop_cost_nonnegative;
            prop_one_region_wan_is_region_free;
            prop_more_primaries_never_cost_more;
            prop_wan_factor_clamped;
          ] );
    ]
