(* Tests for the perf subsystem (lib/perf) and the determinism contract
   the engine optimization ships under: the default experiment path
   must produce byte-identical output to the seed engine. *)

module Scenario = Lion_perf.Scenario
module Report = Lion_perf.Report
module Engine = Lion_sim.Engine

(* --- golden determinism ------------------------------------------- *)

(* The fig6 ablation at a fixed seed and scale, byte-compared against
   its output captured on the seed engine (commit 61f7240, before the
   int-keyed heap / pooled-dispatch optimization). Any change to event
   ordering — a heap that breaks FIFO ties differently, a lossy
   time<->key cast, a reordered network callback — shows up here as a
   diff. This is what licenses the optimization to claim "bit-for-bit
   compatible". *)
let test_fig6_byte_identical () =
  let got =
    Golden.capture_stdout (fun () -> Lion_harness.Experiments.fig6_ablation ~scale:0.05 ())
  in
  let want = Golden.read_file Golden.fig6_path in
  Alcotest.(check string) "fig6 output byte-identical to seed engine" want got

(* --- report: JSON round-trip -------------------------------------- *)

let sample_result name ~events ~txns ~p50 ~words : Scenario.result =
  {
    Scenario.name;
    descr = "synthetic \"quoted\" descr\nwith newline";
    samples = 30;
    events_per_op = events;
    txns_per_op = txns;
    p50_ns = p50;
    p99_ns = p50 *. 1.4;
    minor_words_per_op = words;
    events_per_sec =
      (if p50 <= 0.0 then 0.0 else float_of_int events *. 1e9 /. p50);
    txns_per_sec = (if p50 <= 0.0 then 0.0 else float_of_int txns *. 1e9 /. p50);
    minor_words_per_event =
      (if events = 0 then 0.0 else words /. float_of_int events);
  }

let test_report_roundtrip () =
  let results =
    [
      sample_result "engine_drain" ~events:400_000 ~txns:0 ~p50:5.2e7 ~words:1.8e6;
      sample_result "ycsb_lion" ~events:250_000 ~txns:31_000 ~p50:5.0e8
        ~words:1.7e8;
    ]
  in
  let tmp = Filename.temp_file "lion_bench" ".json" in
  Report.write ~path:tmp ~date:"20260808" ~quick:false results;
  let back = Report.load tmp in
  let profile =
    match Report.field "profile" (Report.read_file tmp) with
    | Some (Report.Str p) -> p
    | _ -> "<missing>"
  in
  Sys.remove tmp;
  Alcotest.(check string) "build profile recorded" Lion_perf.Build_profile.name profile;
  Alcotest.(check int) "row count" (List.length results) (List.length back);
  List.iter2
    (fun (a : Scenario.result) (b : Scenario.result) ->
      Alcotest.(check string) "name" a.Scenario.name b.Scenario.name;
      Alcotest.(check string) "descr" a.Scenario.descr b.Scenario.descr;
      Alcotest.(check int) "events" a.Scenario.events_per_op b.Scenario.events_per_op;
      Alcotest.(check (float 1e-9)) "p50" a.Scenario.p50_ns b.Scenario.p50_ns;
      Alcotest.(check (float 1e-9)) "w/ev" a.Scenario.minor_words_per_event
        b.Scenario.minor_words_per_event)
    results back

let test_report_rejects_garbage () =
  let tmp = Filename.temp_file "lion_bench" ".json" in
  let oc = open_out tmp in
  output_string oc "{ \"schema\": \"something-else\", \"scenarios\": [] }";
  close_out oc;
  let raised =
    try
      ignore (Report.load tmp);
      false
    with Report.Parse_error _ -> true
  in
  Sys.remove tmp;
  Alcotest.(check bool) "wrong schema rejected" true raised

(* --- report: gating ------------------------------------------------ *)

let drain_pair ~speedup =
  [
    sample_result "engine_drain" ~events:400_000 ~txns:0
      ~p50:(2.4e8 /. speedup) ~words:1.8e6;
    sample_result "engine_drain_seed" ~events:400_000 ~txns:0 ~p50:2.4e8
      ~words:7.4e6;
  ]

let test_gates_pass_on_self () =
  let results = drain_pair ~speedup:4.0 in
  let _, failures =
    Report.compare_against ~baseline:results ~current:results ~wall_gates:true
  in
  Alcotest.(check (list string)) "self-compare passes" [] failures

let test_gate_catches_alloc_regression () =
  let baseline = drain_pair ~speedup:4.0 in
  let current =
    List.map
      (fun (r : Scenario.result) ->
        if r.Scenario.name = "engine_drain" then
          {
            r with
            Scenario.minor_words_per_op = r.Scenario.minor_words_per_op *. 2.0;
            minor_words_per_event = r.Scenario.minor_words_per_event *. 2.0;
          }
        else r)
      baseline
  in
  let _, failures =
    Report.compare_against ~baseline ~current ~wall_gates:true
  in
  Alcotest.(check bool) "2x minor-words/event fails the gate" true
    (List.exists
       (fun f ->
         String.length f > 0
         && String.sub f 0 (min 12 (String.length f)) = "engine_drain")
       failures)

let test_gate_catches_speedup_loss () =
  let baseline = drain_pair ~speedup:4.0 in
  let current = drain_pair ~speedup:2.0 in
  (* a uniformly 2x-slower drain also trips the calibrated wall gate?
     no: the seed probe is unchanged, so calibration is 1.0 and only
     engine_drain moved. Both the wall gate and the speedup floor
     should fire. *)
  let _, failures =
    Report.compare_against ~baseline ~current ~wall_gates:true
  in
  Alcotest.(check bool) "speedup floor fires" true
    (List.exists
       (fun f ->
         let needle = "speedup" in
         let rec contains i =
           i + String.length needle <= String.length f
           && (String.sub f i (String.length needle) = needle || contains (i + 1))
         in
         contains 0)
       failures)

(* The speedup gate in each shape of run: both engine probes (gated),
   neither, as under [--only] (a note, no failure), and one alone
   (a failure: the ratio cannot be computed). *)
let test_drain_speedup_shapes () =
  let store = [ sample_result "store_versions" ~events:0 ~txns:0 ~p50:1.0e6 ~words:0.0 ] in
  let failures current =
    snd (Report.compare_against ~baseline:current ~current ~wall_gates:true)
  in
  let both = drain_pair ~speedup:4.0 in
  Alcotest.(check (list string)) "both probes: gated and passing" [] (failures both);
  let notes, fails = Report.compare_against ~baseline:store ~current:store ~wall_gates:true in
  Alcotest.(check (list string)) "neither probe: no failure" [] fails;
  Alcotest.(check bool) "neither probe: noted" true
    (List.mem "drain speedup not gated: neither engine_drain nor engine_drain_seed ran" notes);
  let one = List.filter (fun (r : Scenario.result) -> r.Scenario.name = "engine_drain") both in
  Alcotest.(check (list string)) "one probe: fails"
    [ "cannot compute drain speedup: engine_drain(_seed) missing" ]
    (failures (one @ store))

let test_wall_gate_calibrates_machine_speed () =
  let baseline = drain_pair ~speedup:4.0 in
  (* Same program on a machine 2.5x slower: every scenario's p50 grows
     by the same factor, including the frozen seed probe. The
     calibrated wall gate must NOT fire. *)
  let current =
    List.map
      (fun (r : Scenario.result) ->
        {
          r with
          Scenario.p50_ns = r.Scenario.p50_ns *. 2.5;
          p99_ns = r.Scenario.p99_ns *. 2.5;
          events_per_sec = r.Scenario.events_per_sec /. 2.5;
        })
      baseline
  in
  let _, failures =
    Report.compare_against ~baseline ~current ~wall_gates:true
  in
  Alcotest.(check (list string)) "slow machine alone doesn't fail" [] failures

(* --- scenario measurement smoke ----------------------------------- *)

let test_scenario_measure_smoke () =
  let spec =
    {
      Scenario.name = "smoke";
      descr = "tiny drain";
      run =
        (fun () ->
          let e = Engine.create () in
          for i = 1 to 500 do
            Engine.schedule e ~delay:(float_of_int (i land 31)) (fun () -> ())
          done;
          Engine.run_all e ();
          (Engine.events_processed e, 0));
    }
  in
  let r = Scenario.measure ~quick:true spec in
  Alcotest.(check string) "name" "smoke" r.Scenario.name;
  Alcotest.(check int) "events captured" 500 r.Scenario.events_per_op;
  Alcotest.(check bool) "samples collected" true (r.Scenario.samples > 0);
  Alcotest.(check bool) "p50 positive" true (r.Scenario.p50_ns > 0.0);
  Alcotest.(check bool) "p99 >= p50" true (r.Scenario.p99_ns >= r.Scenario.p50_ns);
  Alcotest.(check bool) "events/sec positive" true (r.Scenario.events_per_sec > 0.0)

let () =
  Alcotest.run "lion_perf"
    [
      ( "golden",
        [
          Alcotest.test_case "fig6 byte-identical to seed engine" `Slow
            test_fig6_byte_identical;
        ] );
      ( "report",
        [
          Alcotest.test_case "JSON round-trip" `Quick test_report_roundtrip;
          Alcotest.test_case "wrong schema rejected" `Quick
            test_report_rejects_garbage;
          Alcotest.test_case "self-compare passes" `Quick test_gates_pass_on_self;
          Alcotest.test_case "alloc regression caught" `Quick
            test_gate_catches_alloc_regression;
          Alcotest.test_case "speedup loss caught" `Quick
            test_gate_catches_speedup_loss;
          Alcotest.test_case "machine-speed calibration" `Quick
            test_wall_gate_calibrates_machine_speed;
          Alcotest.test_case "drain speedup by run shape" `Quick test_drain_speedup_shapes;
        ] );
      ( "scenario",
        [ Alcotest.test_case "measure smoke" `Quick test_scenario_measure_smoke ] );
    ]
