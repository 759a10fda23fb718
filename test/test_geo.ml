(* Geo-replication tests (docs/GEO.md): the region topology and its
   link accounting, the min_regions placement constraint — including a
   property over join/decommission/crash/rejoin interleavings — the
   region-aware workload generator, and the epoch-based OCC protocol's
   consistency audits under the crash and partition nemeses. *)

module Config = Lion_store.Config
module Cluster = Lion_store.Cluster
module Placement = Lion_store.Placement
module Engine = Lion_sim.Engine
module Network = Lion_sim.Network
module Metrics = Lion_sim.Metrics
module Fault = Lion_sim.Fault
module Drive = Lion_audit.Drive
module Runner = Lion_harness.Runner
module Geo = Lion_harness.Geo
module Workloads = Lion_harness.Workloads
module Txn = Lion_workload.Txn

let geo_cfg = Geo.geo_config ()

(* --- region topology --- *)

let test_region_of_node_blocks () =
  (* 4 nodes, 2 regions: contiguous halves. *)
  Alcotest.(check (list int)) "2 regions over 4 nodes" [ 0; 0; 1; 1 ]
    (List.init 4 (Config.region_of_node geo_cfg));
  (* Region-free default: everything in region 0. *)
  Alcotest.(check (list int)) "region-free" [ 0; 0; 0; 0 ]
    (List.init 4 (Config.region_of_node Config.default));
  (* 3 regions over 6 slots (elastic): blocks of 2. *)
  let c =
    {
      (Config.with_elastic_defaults Config.default) with
      Config.geo = Some { Config.default_geo with regions = 3 };
    }
  in
  Alcotest.(check (list int)) "3 regions over 6 slots" [ 0; 0; 1; 1; 2; 2 ]
    (List.init 6 (Config.region_of_node c))

let test_default_topology_free () =
  (* Default config must build a region-free network: no topology, no
     link accounting — the byte-identical default path. *)
  let cl = Cluster.create ~seed:5 Config.default in
  Alcotest.(check bool) "no topology" true (Network.topology cl.Cluster.network = None);
  Alcotest.(check int) "one region" 1 (Network.regions cl.Cluster.network);
  Network.send cl.Cluster.network ~src:0 ~dst:3 ~bytes:1000 (fun () -> ());
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check int) "no wan msgs" 0 (Metrics.count cl.Cluster.metrics Wan_messages);
  Alcotest.(check int) "no lan msgs" 0 (Metrics.count cl.Cluster.metrics Lan_messages)

let test_geo_link_accounting () =
  let cl = Cluster.create ~seed:5 geo_cfg in
  let net = cl.Cluster.network in
  Alcotest.(check int) "two regions" 2 (Network.regions net);
  Alcotest.(check bool) "0-1 intra" false (Network.cross_region net ~src:0 ~dst:1);
  Alcotest.(check bool) "0-2 cross" true (Network.cross_region net ~src:0 ~dst:2);
  (* Cross-region delivery pays the WAN latency class. *)
  Alcotest.(check bool) "wan slower than lan" true
    (Network.link_delay net ~src:0 ~dst:2 ~bytes:128
    > 100.0 *. Network.link_delay net ~src:0 ~dst:1 ~bytes:128);
  Network.send net ~src:0 ~dst:1 ~bytes:100 (fun () -> ());
  Network.send net ~src:0 ~dst:2 ~bytes:200 (fun () -> ());
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check int) "1 lan msg" 1 (Metrics.count cl.Cluster.metrics Lan_messages);
  Alcotest.(check int) "1 wan msg" 1 (Metrics.count cl.Cluster.metrics Wan_messages);
  Alcotest.(check int) "lan bytes" 100 (Metrics.count cl.Cluster.metrics Lan_bytes);
  Alcotest.(check int) "wan bytes" 200 (Metrics.count cl.Cluster.metrics Wan_bytes)

(* --- min_regions placement --- *)

let spans_ok cl =
  let region_of = Cluster.region_of cl in
  let ok = ref true in
  for part = 0 to Cluster.partition_count cl - 1 do
    ok :=
      !ok
      && Placement.regions_spanned cl.Cluster.placement ~region_of ~part >= 2
  done;
  !ok

let test_spread_at_create () =
  let cl = Cluster.create ~seed:5 geo_cfg in
  Alcotest.(check bool) "every partition spans both regions" true (spans_ok cl)

let prop_geo_membership_interleaving =
  (* Satellite: under min_regions >= 2 no partition ends up with all
     replicas in one region, whatever membership churn happened —
     mirrors the convergence property of test_store, plus the span
     invariant. *)
  QCheck.Test.make
    ~name:"min_regions >= 2 survives join/decommission/crash/rejoin interleavings"
    ~count:40
    QCheck.(
      list_of_size (Gen.int_range 0 10)
        (triple (int_range 0 3) (int_range 0 5) (float_range 0.0 300_000.0)))
    (fun ops ->
      let cfg =
        {
          Config.default with
          Config.geo = Some Config.default_geo;
          elastic = Some { Config.default_elastic with rebalance_rate = 200.0 };
        }
      in
      let cl = Cluster.create ~seed:5 cfg in
      List.iter
        (fun (kind, node, advance) ->
          (match kind with
          | 0 -> ignore (Cluster.join_node cl node)
          | 1 ->
              if Cluster.member_count cl > cfg.Config.replicas + 1 then
                ignore (Cluster.decommission_node cl node)
          | 2 -> Cluster.fail_node cl node
          | _ -> Cluster.recover_node cl node);
          Engine.run_until cl.Cluster.engine (Engine.now cl.Cluster.engine +. advance))
        ops;
      Array.iteri
        (fun n m -> if m && not (Cluster.alive cl n) then Cluster.recover_node cl n)
        cl.Cluster.member;
      Engine.run_all cl.Cluster.engine ();
      spans_ok cl)

(* --- region-aware generator --- *)

let region_of_part cfg p = Config.region_of_node cfg (p mod cfg.Config.nodes)

let test_gen_cross_ratio () =
  let local = Geo.gen ~seed:3 ~cross:0.0 geo_cfg in
  let wan = Geo.gen ~seed:3 ~cross:1.0 geo_cfg in
  for _ = 1 to 200 do
    let span g =
      let t = g ~time:0.0 in
      List.length
        (List.sort_uniq compare (List.map (region_of_part geo_cfg) t.Txn.parts))
    in
    Alcotest.(check int) "cross 0.0 stays region-local" 1 (span local);
    Alcotest.(check int) "cross 1.0 spans regions" 2 (span wan)
  done

(* --- epoch-based OCC --- *)

let epoch_drive nemesis =
  Drive.run ~seed:3 ~clients:4 ~duration:1.5 ~nemesis_at:0.3 ~cfg:Config.default
    ~make:(fun cl -> Lion_protocols.Epoch.create cl)
    ~gen:(Workloads.ycsb ~cross:0.4 ~skew:0.6 Config.default)
    ~nemesis ()

let test_epoch_audit_crash () =
  let o = epoch_drive (Fault.crash_recover ~node:1 ~downtime:400_000.0) in
  Alcotest.(check bool) "some work committed" true (o.Drive.result.commits > 0);
  Alcotest.(check bool) "audit passed" true (Drive.passed o)

let test_epoch_audit_partition () =
  let o =
    epoch_drive (Fault.isolate ~node:0 ~nodes:4 ~duration:800_000.0)
  in
  Alcotest.(check bool) "some work committed" true (o.Drive.result.commits > 0);
  Alcotest.(check bool) "audit passed" true (Drive.passed o)

let test_epoch_geo_commits_over_wan () =
  (* End-to-end: epoch on the geo cluster commits cross-region work and
     its replication rounds show up in the WAN counters. *)
  let r =
    Runner.run ~seed:7 ~cfg:geo_cfg
      ~make:(fun cl -> Lion_protocols.Epoch.create cl)
      ~gen:(Geo.gen ~seed:7 ~cross:0.5 geo_cfg)
      { Runner.quick with Runner.warmup = 0.5; duration = 1.0 }
  in
  Alcotest.(check bool) "commits" true (r.Runner.commits > 0);
  Alcotest.(check bool) "wan traffic" true (Runner.count r Wan_messages > 0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "lion_geo"
    [
      ( "topology",
        [
          Alcotest.test_case "region_of_node blocks" `Quick test_region_of_node_blocks;
          Alcotest.test_case "default is region-free" `Quick test_default_topology_free;
          Alcotest.test_case "link accounting" `Quick test_geo_link_accounting;
        ] );
      ( "placement",
        [ Alcotest.test_case "spread at create" `Quick test_spread_at_create ] );
      qsuite "membership" [ prop_geo_membership_interleaving ];
      ( "workload",
        [ Alcotest.test_case "gen cross ratio" `Quick test_gen_cross_ratio ] );
      ( "epoch",
        [
          Alcotest.test_case "audit under crash" `Quick test_epoch_audit_crash;
          Alcotest.test_case "audit under partition" `Quick test_epoch_audit_partition;
          Alcotest.test_case "geo commits over WAN" `Quick test_epoch_geo_commits_over_wan;
        ] );
    ]
