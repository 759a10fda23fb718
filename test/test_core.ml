(* Tests for lion_core: the cost-model router, the planner's analysis
   round, and Lion's standard/batch execution behaviour. *)

module Config = Lion_store.Config
module Cluster = Lion_store.Cluster
module Placement = Lion_store.Placement
module Kvstore = Lion_store.Kvstore
module Engine = Lion_sim.Engine
module Metrics = Lion_sim.Metrics
module Txn = Lion_workload.Txn
module Ycsb = Lion_workload.Ycsb
module Proto = Lion_protocols.Proto
module Planner = Lion_core.Planner
module Router = Lion_core.Router
module Costmodel = Lion_analysis.Costmodel

let small_cfg =
  {
    Config.default with
    Config.nodes = 2;
    partitions_per_node = 2;
    workers_per_node = 2;
    batch_size = 32;
  }

let key part slot = Kvstore.key ~part ~slot
let txn ?(id = 0) ops = Txn.make ~id (Array.of_list ops)

let no_predict =
  { Planner.default_config with Planner.predict = false; use_lstm = false }

(* --- router --- *)

let test_router_prefers_all_primaries () =
  let cl = Cluster.create ~seed:1 small_cfg in
  let router = Router.create cl (Costmodel.make ~freq:(fun _ -> 0.0) ()) in
  (* Partitions 0 and 2 are both primary on node 0. *)
  Alcotest.(check int) "node with both primaries" 0
    (Router.route router (txn [ Txn.read (key 0 0); Txn.read (key 2 0) ]))

let test_router_prefers_secondary_over_absent () =
  let cfg = { small_cfg with Config.nodes = 3; partitions_per_node = 1 } in
  let cl = Cluster.create ~seed:1 cfg in
  (* Partition 0: primary n0, secondary n1; partition 1: primary n1,
     secondary n2. Node 1 covers both; nodes 0 and 2 cover one each. *)
  let router = Router.create cl (Costmodel.make ~freq:(fun _ -> 0.0) ()) in
  Alcotest.(check int) "full-coverage node" 1
    (Router.route router (txn [ Txn.read (key 0 0); Txn.read (key 1 0) ]))

let test_router_stable_for_same_parts () =
  let cl = Cluster.create ~seed:1 small_cfg in
  let router = Router.create cl (Costmodel.make ~freq:(fun _ -> 0.0) ()) in
  let t = txn [ Txn.read (key 0 0); Txn.read (key 1 0) ] in
  let first = Router.route router t in
  for _ = 1 to 10 do
    Alcotest.(check int) "same parts same node" first (Router.route router t)
  done

let test_router_skips_dead_nodes () =
  let cl = Cluster.create ~seed:1 small_cfg in
  let router = Router.create cl (Costmodel.make ~freq:(fun _ -> 0.0) ()) in
  let t = txn [ Txn.read (key 0 0); Txn.read (key 2 0) ] in
  Alcotest.(check int) "prefers node 0" 0 (Router.route router t);
  Cluster.fail_node cl 0;
  Alcotest.(check int) "falls over to live node" 1 (Router.route router t)

(* Reference for the router's O(1) pricing: the fold-based frequency,
   per-node cost and two-pass routing as they were before the hottest
   access count was cached and each node priced once (region-free
   cost expression). Random touch/decay sequences interleaved with
   placement moves, node failures and routing must agree exactly. *)
let reference_freq (cl : Cluster.t) p =
  let hottest = Array.fold_left Stdlib.max 0.0 cl.Cluster.part_access in
  if hottest <= 0.0 then 0.0 else cl.Cluster.part_access.(p) /. hottest

let reference_cost (cost : Costmodel.t) placement ~parts ~node =
  List.fold_left
    (fun acc part ->
      if Placement.has_primary placement ~part ~node then acc
      else if Placement.has_secondary placement ~part ~node then (
        let f = cost.Costmodel.freq part *. Costmodel.route_freq_scale in
        acc +. (Costmodel.w_r *. (1.0 +. (log (f +. 1.0) /. log 2.0))))
      else acc +. Costmodel.w_m)
    0.0 parts

let reference_route cl cost (txn : Txn.t) =
  let placement = cl.Cluster.placement in
  let nodes = Placement.nodes placement in
  let best_cost = ref infinity in
  for node = 0 to nodes - 1 do
    if Cluster.alive cl node then (
      let c = reference_cost cost placement ~parts:txn.Txn.parts ~node in
      if c < !best_cost then best_cost := c)
  done;
  let tied = ref [] in
  for node = nodes - 1 downto 0 do
    if Cluster.alive cl node then (
      let c = reference_cost cost placement ~parts:txn.Txn.parts ~node in
      if c <= !best_cost +. 1e-9 then tied := node :: !tied)
  done;
  match !tied with
  | [] -> invalid_arg "reference_route: no live node"
  | [ n ] -> n
  | candidates -> List.nth candidates (Hashtbl.hash txn.Txn.parts mod List.length candidates)

type route_op =
  | Touch of int
  | Decay of float
  | Move of int * int  (** part, node: promote, add or shed a replica *)
  | Fail of int
  | Route of int list

let route_op_print = function
  | Touch p -> Printf.sprintf "touch %d" p
  | Decay f -> Printf.sprintf "decay %g" f
  | Move (p, n) -> Printf.sprintf "move %d->%d" p n
  | Fail n -> Printf.sprintf "fail %d" n
  | Route ps -> "route [" ^ String.concat ";" (List.map string_of_int ps) ^ "]"

let prop_router_matches_reference =
  let cfg = Config.default in
  let parts = Config.total_partitions cfg and nodes = cfg.Config.nodes in
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun p -> Touch p) (int_bound (parts - 1)));
          (1, map (fun f -> Decay f) (oneofl [ 0.0; 0.5; 1.0 ]));
          (3, map2 (fun p n -> Move (p, n)) (int_bound (parts - 1)) (int_bound (nodes - 1)));
          (1, map (fun n -> Fail n) (int_bound (nodes - 1)));
          (4, map (fun ps -> Route ps) (list_size (int_range 1 4) (int_bound (parts - 1))));
        ])
  in
  QCheck.Test.make ~name:"O(1) frequency and one-pass routing match the reference" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat ", " (List.map route_op_print ops))
       QCheck.Gen.(list_size (int_range 1 120) op))
    (fun ops ->
      let cl = Cluster.create ~seed:1 cfg in
      let placement = cl.Cluster.placement in
      let router = Router.create cl (Costmodel.make ~freq:(Cluster.normalized_freq cl) ()) in
      let reference = Costmodel.make ~freq:(reference_freq cl) () in
      List.for_all
        (fun op ->
          (match op with
          | Touch p -> Cluster.touch_partition cl p
          | Decay f -> Cluster.decay_access cl f
          | Move (part, node) ->
              if Placement.has_secondary placement ~part ~node then
                Placement.remaster placement ~part ~node
              else if Placement.has_primary placement ~part ~node then ()
              else if Placement.replica_count placement part < Placement.max_replicas placement
              then Placement.add_secondary placement ~part ~node
              else
                List.iter
                  (fun n -> Placement.remove_secondary placement ~part ~node:n)
                  (Placement.secondaries placement part)
          | Fail n ->
              let live = List.filter (Cluster.alive cl) (List.init nodes Fun.id) in
              if List.length live > 1 then Cluster.fail_node cl n
          | Route _ -> ());
          List.for_all
            (fun p -> Float.equal (Cluster.normalized_freq cl p) (reference_freq cl p))
            (List.init parts Fun.id)
          &&
          match op with
          | Route ps ->
              let t = txn (List.map (fun p -> Txn.read (key p 0)) ps) in
              Router.route router t = reference_route cl reference t
          | _ -> true)
        ops)

let test_read_at_secondary_serves_locally () =
  let cl = Cluster.create ~seed:1 small_cfg in
  (* Read-only cross transaction; node 0 holds a secondary of 1. *)
  let t = txn [ Txn.read (key 0 1); Txn.read (key 1 1) ] in
  let proto = Lion_core.Standard.create ~read_at_secondary:true ~config:no_predict cl in
  let done_ = ref false in
  proto.Proto.submit t ~on_done:(fun () -> done_ := true);
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  Alcotest.(check bool) "committed" true !done_;
  Alcotest.(check int) "single node without promotion" 1
    (Metrics.count cl.Cluster.metrics Single_node_commits);
  Alcotest.(check int) "no remaster happened" 0
    (Metrics.count cl.Cluster.metrics Remaster_complete)

let test_read_at_secondary_writes_still_promote () =
  let cl = Cluster.create ~seed:1 small_cfg in
  let t = txn [ Txn.write (key 0 1); Txn.write (key 1 1) ] in
  let proto = Lion_core.Standard.create ~read_at_secondary:true ~config:no_predict cl in
  let done_ = ref false in
  proto.Proto.submit t ~on_done:(fun () -> done_ := true);
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  Alcotest.(check bool) "committed" true !done_;
  Alcotest.(check bool) "write path still remasters" true
    (Metrics.count cl.Cluster.metrics Remaster_complete > 0)

(* --- planner --- *)

let feed_pairs planner cl ~pairs ~count =
  for i = 1 to count do
    List.iter
      (fun (a, b) ->
        let t = txn ~id:i [ Txn.write (key a i); Txn.write (key b i) ] in
        List.iter (fun p -> Cluster.touch_partition cl p) t.Txn.parts;
        Planner.observe planner t)
      pairs
  done

let test_planner_colocates_pair () =
  let cl = Cluster.create ~seed:1 small_cfg in
  let planner = Planner.create no_predict cl in
  (* Partitions 0 (primary n0) and 1 (primary n1) heavily co-accessed:
     after one analysis round some node must hold both primaries (the
     eager plan) or at least a replica of both. *)
  feed_pairs planner cl ~pairs:[ (0, 1) ] ~count:100;
  Planner.tick planner;
  Engine.run_all cl.Cluster.engine ();
  let p = cl.Cluster.placement in
  let colocated =
    Placement.primary p 0 = Placement.primary p 1
  in
  Alcotest.(check bool) "pair colocated after plan" true colocated;
  Alcotest.(check int) "one analysis round" 1 (Planner.rounds planner)

let test_planner_balances_two_pairs () =
  let cfg = { small_cfg with Config.partitions_per_node = 4 } in
  let cl = Cluster.create ~seed:1 cfg in
  let planner = Planner.create no_predict cl in
  (* Two independent hot pairs: they must not land on the same node. *)
  feed_pairs planner cl ~pairs:[ (0, 1); (4, 5) ] ~count:100;
  Planner.tick planner;
  Engine.run_all cl.Cluster.engine ();
  let p = cl.Cluster.placement in
  Alcotest.(check bool) "pair 1 colocated" true
    (Placement.primary p 0 = Placement.primary p 1);
  Alcotest.(check bool) "pair 2 colocated" true
    (Placement.primary p 4 = Placement.primary p 5);
  Alcotest.(check bool) "pairs on different nodes" true
    (Placement.primary p 0 <> Placement.primary p 4)

let test_planner_idempotent_when_converged () =
  let cl = Cluster.create ~seed:1 small_cfg in
  let planner = Planner.create no_predict cl in
  feed_pairs planner cl ~pairs:[ (0, 1) ] ~count:100;
  Planner.tick planner;
  Engine.run_all cl.Cluster.engine ();
  (* Same workload again: the new plan must require no migrations. *)
  feed_pairs planner cl ~pairs:[ (0, 1) ] ~count:100;
  Planner.tick planner;
  Alcotest.(check int) "no further replica adds" 0 (Planner.last_plan_adds planner)

let test_planner_last_wv_zero_without_prediction () =
  let cl = Cluster.create ~seed:1 small_cfg in
  let planner = Planner.create no_predict cl in
  Planner.tick planner;
  Alcotest.(check (float 0.0)) "wv off" 0.0 (Planner.last_wv planner)

(* --- Lion standard protocol end-to-end --- *)

let drive ?(seconds = 3.0) ?(cfg = small_cfg) make gen =
  let cl = Cluster.create ~seed:4 cfg in
  let proto = make cl in
  let engine = cl.Cluster.engine in
  let rec loop () =
    proto.Proto.submit (gen ()) ~on_done:(fun () ->
        Engine.schedule engine ~delay:0.0 loop)
  in
  for _ = 1 to 16 do
    loop ()
  done;
  let rec tick () =
    Engine.schedule engine ~delay:(Engine.seconds 0.5) (fun () ->
        proto.Proto.tick ();
        tick ())
  in
  tick ();
  Engine.run_until engine (Engine.seconds seconds);
  cl

let pair_gen () =
  let i = ref 0 in
  fun () ->
    incr i;
    txn ~id:!i [ Txn.write (key 0 !i); Txn.write (key 1 !i) ]

let test_lion_standard_converts_to_single_node () =
  let cl =
    drive (fun cl -> Lion_core.Standard.create ~config:no_predict cl) (pair_gen ())
  in
  let total = Metrics.count cl.Cluster.metrics Commits in
  let single = Metrics.count cl.Cluster.metrics Single_node_commits in
  Alcotest.(check bool) "commits" true (total > 0);
  Alcotest.(check bool)
    (Printf.sprintf "mostly single-node after adaptation (%d/%d)" single total)
    true
    (float_of_int single /. float_of_int total > 0.6)

let test_lion_standard_beats_2pc_on_recurring_pairs () =
  let run make = Metrics.count (drive make (pair_gen ())).Cluster.metrics Commits in
  let lion = run (fun cl -> Lion_core.Standard.create ~config:no_predict cl) in
  let twopc = run Lion_protocols.Twopc.create in
  Alcotest.(check bool)
    (Printf.sprintf "lion %d > 2pc %d" lion twopc)
    true
    (float_of_int lion > 1.2 *. float_of_int twopc)

(* --- Lion batch protocol --- *)

let test_lion_batch_converts_and_commits () =
  let cl =
    drive (fun cl -> Lion_core.Batch_mode.create ~config:no_predict cl) (pair_gen ())
  in
  let total = Metrics.count cl.Cluster.metrics Commits in
  Alcotest.(check bool) "commits" true (total > 0);
  Alcotest.(check bool) "single-node majority" true
    (float_of_int (Metrics.count cl.Cluster.metrics Single_node_commits) /. float_of_int total
    > 0.6)

let test_lion_batch_remaster_overlap_single_barrier () =
  (* A batch wanting many remasters pays a single remaster barrier, so
     its epoch latency stays far below n_remasters × delay. *)
  let cfg = { small_cfg with Config.batch_size = 8 } in
  let cl = Cluster.create ~seed:4 cfg in
  let proto = Lion_core.Batch_mode.create ~config:no_predict cl in
  let commit_at = ref [] in
  for i = 0 to 7 do
    (* Pairs (0,1) and (2,3): both need a remaster on their routed node. *)
    let parts = if i mod 2 = 0 then (0, 1) else (2, 3) in
    proto.Proto.submit
      (txn ~id:i [ Txn.write (key (fst parts) i); Txn.write (key (snd parts) i) ])
      ~on_done:(fun () -> commit_at := Engine.now cl.Cluster.engine :: !commit_at)
  done;
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  Alcotest.(check int) "all committed" 8 (List.length !commit_at);
  List.iter
    (fun t ->
      Alcotest.(check bool) "epoch bounded by one barrier" true
        (t < 2.0 *. Config.default.Config.remaster_delay +. 10_000.0))
    !commit_at

(* --- ablation factory --- *)

let test_ablation_names () =
  Alcotest.(check (list string))
    "Table II variants"
    [ "2PC"; "Lion(S)"; "Lion(R)"; "Lion(SW)"; "Lion(RW)"; "Lion(RB)"; "Lion" ]
    (List.map Lion_core.Ablation.name Lion_core.Ablation.all)

let test_ablation_constructs_all () =
  List.iter
    (fun v ->
      let cl = Cluster.create ~seed:2 small_cfg in
      let proto = Lion_core.Ablation.create ~use_lstm:false v cl in
      Alcotest.(check string) "name matches" (Lion_core.Ablation.name v) proto.Proto.name)
    Lion_core.Ablation.all

(* --- integration with YCSB generator --- *)

let test_lion_on_ycsb_uniform_cross () =
  let cfg = Config.default in
  let params =
    {
      (Ycsb.default_params ~partitions:(Config.total_partitions cfg) ~nodes:cfg.Config.nodes)
      with
      Ycsb.cross_ratio = 1.0;
    }
  in
  let gen = Ycsb.create ~seed:5 params in
  let cl =
    drive ~seconds:4.0 ~cfg
      (fun cl -> Lion_core.Standard.create ~config:no_predict cl)
      (fun () -> Ycsb.next gen)
  in
  let total = Metrics.count cl.Cluster.metrics Commits in
  Alcotest.(check bool) "substantial throughput" true (total > 10_000);
  Alcotest.(check bool) "conversion happened" true
    (Metrics.count cl.Cluster.metrics Single_node_commits > total / 4)

let () =
  Alcotest.run "lion_core"
    [
      ( "router",
        [
          Alcotest.test_case "prefers all primaries" `Quick test_router_prefers_all_primaries;
          Alcotest.test_case "prefers coverage" `Quick test_router_prefers_secondary_over_absent;
          Alcotest.test_case "stable routing" `Quick test_router_stable_for_same_parts;
          Alcotest.test_case "skips dead nodes" `Quick test_router_skips_dead_nodes;
          Alcotest.test_case "read-at-secondary local" `Quick
            test_read_at_secondary_serves_locally;
          Alcotest.test_case "writes still promote" `Quick
            test_read_at_secondary_writes_still_promote;
        ] );
      ("router-props", [ QCheck_alcotest.to_alcotest prop_router_matches_reference ]);
      ( "planner",
        [
          Alcotest.test_case "colocates hot pair" `Quick test_planner_colocates_pair;
          Alcotest.test_case "balances independent pairs" `Quick test_planner_balances_two_pairs;
          Alcotest.test_case "idempotent when converged" `Quick
            test_planner_idempotent_when_converged;
          Alcotest.test_case "wv zero without prediction" `Quick
            test_planner_last_wv_zero_without_prediction;
        ] );
      ( "standard",
        [
          Alcotest.test_case "converts to single-node" `Slow
            test_lion_standard_converts_to_single_node;
          Alcotest.test_case "beats 2PC on recurring pairs" `Slow
            test_lion_standard_beats_2pc_on_recurring_pairs;
        ] );
      ( "batch",
        [
          Alcotest.test_case "converts and commits" `Slow test_lion_batch_converts_and_commits;
          Alcotest.test_case "remaster barrier overlaps" `Quick
            test_lion_batch_remaster_overlap_single_barrier;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "names" `Quick test_ablation_names;
          Alcotest.test_case "constructs all" `Quick test_ablation_constructs_all;
        ] );
      ( "ycsb-e2e",
        [ Alcotest.test_case "uniform 100% cross" `Slow test_lion_on_ycsb_uniform_cross ] );
    ]
