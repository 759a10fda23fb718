(* Cross-module integration tests: the harness runner end-to-end, the
   determinism guarantee, and the paper's headline qualitative shapes
   on miniature configurations (full-size shapes are exercised by the
   benchmark executable). *)

module Config = Lion_store.Config
module Runner = Lion_harness.Runner
module Workloads = Lion_harness.Workloads
module Metrics = Lion_sim.Metrics

let tiny =
  { Runner.quick with Runner.warmup = 1.0; duration = 2.0; tick_every = 0.5 }

let cfg = Config.default

let run ?(batch = false) ?(rc = tiny) make gen =
  Runner.run ~seed:1 ~batch ~cfg ~make ~gen rc

let test_runner_produces_consistent_result () =
  let r = run Lion_protocols.Twopc.create (Workloads.ycsb ~cross:0.5 cfg) in
  Alcotest.(check bool) "positive throughput" true (r.Runner.throughput > 0.0);
  Alcotest.(check bool) "commits counted" true (r.Runner.commits > 0);
  Alcotest.(check bool) "p50 <= p95" true (r.Runner.p50 <= r.Runner.p95);
  Alcotest.(check bool) "ratio bounded" true
    (r.Runner.single_node_ratio >= 0.0 && r.Runner.single_node_ratio <= 1.0);
  Alcotest.(check bool) "series covers run" true
    (Array.length r.Runner.throughput_series >= 2)

let test_runner_deterministic () =
  let go () = (run Lion_protocols.Twopc.create (Workloads.ycsb ~cross:0.5 cfg)).Runner.commits in
  Alcotest.(check int) "same seed same commits" (go ()) (go ())

let test_runner_seed_changes_result () =
  let go seed =
    (Runner.run ~seed ~cfg ~make:Lion_protocols.Twopc.create
       ~gen:(Workloads.ycsb ~skew:0.5 ~cross:0.5 cfg)
       tiny)
      .Runner.commits
  in
  (* Different seeds shift the simulation at least slightly. *)
  Alcotest.(check bool) "seeds matter" true (go 1 <> go 2 || go 1 <> go 3)

(* A hot cross-partition set makes Lion remaster in the first half of
   the warm-up; from then on every transaction is one operation, and no
   planner tick moves a primary under it, so nothing remasters in the
   measured window. Its counts must leave the warm-up's remasters out;
   the same cell without a warm-up counts them. *)
let test_warmup_remasters_not_counted () =
  let gen () =
    let hot = Workloads.ycsb ~skew:0.9 ~cross:1.0 cfg in
    fun ~time ->
      let t = hot ~time in
      if time < Lion_sim.Engine.seconds 0.5 then t
      else Lion_workload.Txn.make ~id:t.id [| t.ops.(0) |]
  in
  let lion cl = (Lion_harness.Protocols.get "lion").make cl in
  let rc = { tiny with Runner.tick_every = 10.0 } in
  let r = run ~rc lion (gen ()) in
  Alcotest.(check int) "no remaster in the window" 0 r.Runner.remasters;
  Alcotest.(check int) "Runner.count agrees" 0 (Runner.count r Remaster_complete);
  let whole = run ~rc:{ rc with Runner.warmup = 0.0; duration = 3.0 } lion (gen ()) in
  Alcotest.(check bool) "the warm-up remastered" true (whole.Runner.remasters > 0)

let test_phase_fractions_sum_to_one () =
  let r = run Lion_protocols.Twopc.create (Workloads.ycsb ~cross:1.0 cfg) in
  let total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 r.Runner.phase_fractions in
  Alcotest.(check (float 1e-6)) "fractions sum" 1.0 total

let test_batch_runner_records_bytes () =
  let r = run ~batch:true Lion_protocols.Star.create (Workloads.ycsb ~cross:0.5 cfg) in
  Alcotest.(check bool) "bytes per txn positive" true (r.Runner.bytes_per_txn > 0.0)

(* --- headline shapes on small runs --- *)

let test_lion_beats_2pc_on_distributed_workload () =
  let rc = { Runner.quick with Runner.warmup = 5.0; duration = 4.0 } in
  let gen () = Workloads.ycsb ~cross:1.0 cfg in
  let lion =
    Runner.run ~seed:1 ~cfg
      ~make:(fun cl ->
        Lion_core.Standard.create
          ~config:{ Lion_core.Planner.default_config with w_p = 0.0; use_lstm = false }
          cl)
      ~gen:(gen ()) rc
  in
  let twopc = Runner.run ~seed:1 ~cfg ~make:Lion_protocols.Twopc.create ~gen:(gen ()) rc in
  Alcotest.(check bool)
    (Printf.sprintf "Lion %.0f > 1.5x 2PC %.0f" lion.Runner.throughput
       twopc.Runner.throughput)
    true
    (lion.Runner.throughput > 1.5 *. twopc.Runner.throughput)

let test_lion_single_node_ratio_rises () =
  let rc = { Runner.quick with Runner.warmup = 5.0; duration = 4.0 } in
  let r =
    Runner.run ~seed:1 ~cfg
      ~make:(fun cl ->
        Lion_core.Standard.create
          ~config:{ Lion_core.Planner.default_config with w_p = 0.0; use_lstm = false }
          cl)
      ~gen:(Workloads.ycsb ~cross:1.0 cfg) rc
  in
  Alcotest.(check bool)
    (Printf.sprintf "single-node ratio %.2f" r.Runner.single_node_ratio)
    true (r.Runner.single_node_ratio > 0.5)

let test_star_flat_across_cross_ratio () =
  let rc = { Runner.quick with Runner.warmup = 2.0; duration = 2.0 } in
  let at ratio =
    (Runner.run ~seed:1 ~batch:true ~cfg ~make:Lion_protocols.Star.create
       ~gen:(Workloads.ycsb ~cross:ratio cfg) rc)
      .Runner.throughput
  in
  let lo = at 0.3 and hi = at 1.0 in
  (* Star's throughput is bounded by the super node, so it must not
     gain from more cross-partition work — and should not collapse
     either (everything is single-node there). *)
  Alcotest.(check bool)
    (Printf.sprintf "hi %.0f <= lo %.0f within 25%%" hi lo)
    true
    (hi <= lo *. 1.25)

let test_tpcc_runs_under_lion () =
  let r =
    run
      (fun cl ->
        Lion_core.Standard.create
          ~config:{ Lion_core.Planner.default_config with w_p = 0.0; use_lstm = false }
          cl)
      (Workloads.tpcc ~skew:0.5 ~cross:0.3 cfg)
  in
  Alcotest.(check bool) "TPC-C commits" true (r.Runner.commits > 0)

let test_dynamic_workload_runs () =
  let rc = { Runner.quick with Runner.warmup = 0.0; duration = 5.0 } in
  let r =
    Runner.run ~seed:1 ~cfg ~make:Lion_protocols.Twopc.create
      ~gen:(Workloads.dynamic_position ~period:2.0 cfg)
      rc
  in
  Alcotest.(check bool) "survives phase switches" true (r.Runner.commits > 0)

(* --- chaos: a crash plan must degrade and then recover --- *)

let test_crash_plan_degrades_and_recovers () =
  let module Engine = Lion_sim.Engine in
  let cfg =
    {
      Config.default with
      Config.fault_plan =
        Lion_sim.Fault.crash_recover ~node:1 ~at:(Engine.seconds 2.0)
          ~downtime:(Engine.seconds 2.0);
    }
  in
  let rc = { Runner.quick with Runner.warmup = 0.0; duration = 8.0; tick_every = 1.0 } in
  let r =
    Runner.run ~seed:1 ~cfg
      ~make:(fun cl ->
        Lion_core.Standard.create
          ~config:{ Lion_core.Planner.default_config with w_p = 0.0; use_lstm = false }
          cl)
      ~gen:(Workloads.ycsb ~cross:0.5 cfg) rc
  in
  Alcotest.(check bool) "commits despite crash" true (r.Runner.commits > 0);
  Alcotest.(check bool) "losses observed" true (Runner.count r Drops > 0);
  Alcotest.(check bool) "retries observed" true (r.Runner.retries > 0);
  Alcotest.(check bool) "availability dipped" true
    (Array.exists (fun a -> a < 1.0) r.Runner.availability);
  Alcotest.(check bool) "unavailability integrated" true (r.Runner.unavail_seconds > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "finite recovery (%.0fs)" r.Runner.time_to_recover)
    true
    (Float.is_finite r.Runner.time_to_recover);
  (* Still committing at full clip in the final second. *)
  let series = r.Runner.throughput_series in
  Alcotest.(check bool) "throughput recovered" true
    (Array.length series >= 8 && series.(7) > 0.5 *. series.(1))

let test_empty_fault_plan_is_free () =
  (* The fault machinery must not disturb a healthy run: an explicit
     empty plan reproduces the exact same simulation, commit for
     commit, and records no fault events. *)
  let go plan =
    Runner.run ~seed:1 ~cfg:{ cfg with Config.fault_plan = plan }
      ~make:Lion_protocols.Twopc.create
      ~gen:(Workloads.ycsb ~cross:0.5 cfg) tiny
  in
  let base = go Lion_sim.Fault.none in
  Alcotest.(check int) "no timeouts" 0 base.Runner.timeouts;
  Alcotest.(check int) "no retries" 0 base.Runner.retries;
  Alcotest.(check int) "no drops" 0 (Runner.count base Drops);
  Alcotest.(check bool) "fully available" true
    (Array.for_all (fun a -> a = 1.0) base.Runner.availability);
  Alcotest.(check (float 0.0)) "never degraded" 0.0 base.Runner.time_to_recover

(* Short 2PC, Lion and Unified cells (all-distributed YCSB) under one
   plan that loses messages, splits the cluster and crashes a node, so
   every fault leg of the RPC, log-ship and retry paths runs. Two more
   rows cover the overload controls (Lion with breakers, retry budget,
   admission and deadlines on) and Epoch's cross-region replication
   round (a two-region geo layout). Each counter and float is pinned
   exactly against a capture; after an intended behaviour change, write
   the received text (the failure prints it) to
   test/golden_fault_cells.txt. *)
let fault_golden_plan =
  let ms = Lion_sim.Engine.ms in
  Lion_sim.Fault.lossy ~prob:0.05 ~from_:(ms 100.0) ~until:(ms 180.0) ()
  @ Lion_sim.Fault.split_brain ~groups:[ [ 0; 1 ]; [ 2; 3 ] ] ~at:(ms 200.0)
      ~duration:(ms 80.0)
  @ Lion_sim.Fault.crash_recover ~node:3 ~at:(ms 300.0) ~downtime:(ms 100.0)

let fault_golden_lines () =
  let cfg = { cfg with Config.fault_plan = fault_golden_plan } in
  let rc = { Runner.quick with Runner.warmup = 0.0; duration = 0.5; tick_every = 0.1 } in
  List.map
    (fun (label, id, cfg) ->
      let e = Lion_harness.Protocols.get id in
      let r =
        Runner.run ~seed:3 ~batch:e.batch ~cfg ~make:(fun cl -> e.make cl)
          ~gen:(Workloads.ycsb ~seed:4 ~cross:1.0 cfg) rc
      in
      Printf.sprintf
        "%s commits=%d aborts=%d timeouts=%d retries=%d drops=%d stale_acks=%d \
         sheds=%d breaker_rejects=%d breaker_opens=%d budget_denials=%d \
         bytes=%.17g bytes_per_txn=%.17g p50=%.17g p99=%.17g\n"
        label r.Runner.commits r.aborts r.timeouts r.retries (Runner.count r Drops)
        (Runner.count r Stale_acks) r.sheds (Runner.count r Breaker_rejects)
        (Runner.count r Breaker_opens) (Runner.count r Budget_denials)
        (Array.fold_left ( +. ) 0.0 r.bytes_series)
        r.bytes_per_txn r.p50 r.p99)
    [
      ("2pc", "2pc", cfg);
      ("lion", "lion", cfg);
      ("unified", "unified", cfg);
      ("lion+overload", "lion", Config.with_overload_defaults cfg);
      ("epoch+geo", "epoch", { cfg with Config.geo = Some Config.default_geo });
    ]
  |> String.concat ""

let test_fault_cells_match_golden () =
  Alcotest.(check string) "fault cells match the golden capture"
    (Golden.read_file (Golden.path "golden_fault_cells.txt"))
    (fault_golden_lines ())

let test_experiments_registry_complete () =
  let ids = List.map (fun (id, _, _) -> id) Lion_harness.Experiments.registry in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true (List.mem expected ids))
    [
      "table1"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13a";
      "fig13b"; "fig14";
    ]

(* The registry's elastic_scale passes its trace sink on to the run: a
   traced run hands the sink a tracer, and tracing leaves the table as
   it was. *)
let test_elastic_scale_traced () =
  let run =
    match
      List.find_opt (fun (id, _, _) -> id = "elastic_scale") Lion_harness.Experiments.registry
    with
    | Some (_, _, run) -> run
    | None -> Alcotest.fail "elastic_scale missing from the registry"
  in
  let emitted = ref 0 in
  let trace =
    {
      Runner.fresh = (fun () -> Lion_trace.Trace.create ~policy:(Lion_trace.Trace.Slowest 5) ());
      emit = (fun _ -> incr emitted);
    }
  in
  let plain = Golden.capture_stdout (fun () -> run 0.05) in
  let traced = Golden.capture_stdout (fun () -> run ~trace 0.05) in
  Alcotest.(check bool) "a tracer reached the sink" true (!emitted >= 1);
  Alcotest.(check string) "same table traced and untraced" plain traced

let () =
  Alcotest.run "integration"
    [
      ( "runner",
        [
          Alcotest.test_case "consistent result" `Quick test_runner_produces_consistent_result;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_runner_seed_changes_result;
          Alcotest.test_case "phase fractions" `Quick test_phase_fractions_sum_to_one;
          Alcotest.test_case "warm-up remasters not counted" `Quick
            test_warmup_remasters_not_counted;
          Alcotest.test_case "batch bytes" `Quick test_batch_runner_records_bytes;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "Lion beats 2PC" `Slow test_lion_beats_2pc_on_distributed_workload;
          Alcotest.test_case "conversion ratio" `Slow test_lion_single_node_ratio_rises;
          Alcotest.test_case "Star capped" `Slow test_star_flat_across_cross_ratio;
          Alcotest.test_case "TPC-C under Lion" `Quick test_tpcc_runs_under_lion;
          Alcotest.test_case "dynamic workload" `Quick test_dynamic_workload_runs;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "crash plan degrades and recovers" `Slow
            test_crash_plan_degrades_and_recovers;
          Alcotest.test_case "empty fault plan is free" `Quick
            test_empty_fault_plan_is_free;
          Alcotest.test_case "fault cells match golden" `Quick
            test_fault_cells_match_golden;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry complete" `Quick test_experiments_registry_complete;
          Alcotest.test_case "elastic_scale traced" `Quick test_elastic_scale_traced;
        ] );
    ]
