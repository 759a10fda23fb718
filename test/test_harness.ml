(* Tests for the harness utilities: workload builders, CSV export, the
   protocol registry and the sweep-cell pool. (Runner behaviour is
   covered by test_integration.) *)

module Config = Lion_store.Config
module Workloads = Lion_harness.Workloads
module Export = Lion_harness.Export
module Txn = Lion_workload.Txn
module Runner = Lion_harness.Runner
module Protocols = Lion_harness.Protocols
module Planner = Lion_core.Planner
module Pool = Lion_harness.Pool

let cfg = Config.default

let test_ycsb_builder_parametrised () =
  let gen = Workloads.ycsb ~cross:1.0 cfg in
  for _ = 1 to 50 do
    Alcotest.(check bool) "cross pairs" true (Txn.is_cross_partition (gen ~time:0.0))
  done

let test_ycsb_builder_reuses_generator () =
  let gen = Workloads.ycsb cfg in
  let a = gen ~time:0.0 and b = gen ~time:0.0 in
  Alcotest.(check bool) "ids advance (one generator)" true (b.Txn.id = a.Txn.id + 1)

let test_tpcc_builder () =
  let gen = Workloads.tpcc ~skew:0.5 ~cross:0.5 cfg in
  let t = gen ~time:0.0 in
  Alcotest.(check bool) "has operations" true (t.Txn.ops <> [||])

let test_dynamic_builder_respects_time () =
  let gen = Workloads.dynamic_position ~period:2.0 cfg in
  (* Phase C (100% cross) starts at 2 periods. *)
  let crosses = ref 0 in
  for _ = 1 to 50 do
    if Txn.is_cross_partition (gen ~time:(Lion_sim.Engine.seconds 5.0)) then incr crosses
  done;
  Alcotest.(check int) "phase C all cross" 50 !crosses

let read_file = Golden.read_file

let test_csv_escaping () =
  let path = Filename.temp_file "lion" ".csv" in
  Export.write_csv ~path ~header:[ "a"; "b" ]
    ~rows:[ [ "plain"; "with,comma" ]; [ "with\"quote"; "multi\nline" ] ];
  let content = read_file path in
  Sys.remove path;
  Alcotest.(check bool) "comma quoted" true
    (String.length content > 0
    &&
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    contains content "\"with,comma\"" && contains content "\"with\"\"quote\"")

let test_series_csv_shape () =
  let path = Filename.temp_file "lion" ".csv" in
  Export.series_csv ~path [ ("x", [| 1.0; 2.0 |]); ("y", [| 3.0 |]) ];
  let content = read_file path in
  Sys.remove path;
  let lines = String.split_on_char '\n' (String.trim content) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" "second,x,y" (List.hd lines);
  Alcotest.(check string) "padding" "2,2.0," (List.nth lines 2)

let test_result_rows_header_matches_rows () =
  let header, rows = Export.result_rows [] in
  Alcotest.(check bool) "header non-empty" true (header <> []);
  List.iter
    (fun col ->
      Alcotest.(check bool) (col ^ " column present") true (List.mem col header))
    [
      "frac_execution"; "frac_prepare"; "frac_commit"; "frac_remaster";
      "frac_scheduling"; "frac_replication"; "timeouts"; "retries"; "drops";
      "unavail_s"; "time_to_recover_s"; "goodput_under_fault";
      "offered_txn_s"; "goodput_txn_s"; "p99_us"; "sheds"; "breaker_rejects";
      "budget_denials"; "deadline_giveups"; "deadline_misses";
    ];
  Alcotest.(check int) "no rows for empty" 0 (List.length rows)

let test_result_rows_width () =
  let r =
    {
      Lion_harness.Runner.throughput = 1.0;
      goodput = 1.0;
      offered = 1.0;
      commits = 1;
      aborts = 0;
      p50 = 1.0;
      p75 = 1.0;
      p90 = 1.0;
      p95 = 1.0;
      p99 = 1.0;
      mean_latency = 1.0;
      single_node_ratio = 1.0;
      remaster_ratio = 0.0;
      throughput_series = [||];
      goodput_series = [||];
      bytes_series = [||];
      bytes_per_txn = 0.0;
      phase_fractions = [ (Lion_sim.Metrics.Execution, 1.0) ];
      remasters = 0;
      replica_adds = 0;
      timeouts = 0;
      retries = 0;
      sheds = 0;
      deadline_giveups = 0;
      availability = [||];
      unavail_seconds = 0.0;
      time_to_recover = infinity;
      goodput_under_fault = 0.0;
      engine_events = 0;
      counters = Lion_sim.Metrics.(snapshot (create (Lion_sim.Engine.create ())));
    }
  in
  let header, rows = Export.result_rows [ ("x", r) ] in
  match rows with
  | [ row ] ->
      Alcotest.(check int) "row width matches header" (List.length header)
        (List.length row);
      (* A run that ends degraded exports time_to_recover as "inf", not
         a float-formatted infinity. *)
      Alcotest.(check bool) "inf cell" true (List.mem "inf" row)
  | _ -> Alcotest.fail "expected one row"

(* --- protocol registry --- *)

(* The id/label/batch columns, as the hand-kept tables they replace
   had them (labels from the experiment tables, [Unified] and
   [EpochOCC] from the protocols' own names). *)
let test_registry_table () =
  Alcotest.(check (list (triple string string bool)))
    "id, label, batch"
    [
      ("2pc", "2PC", false);
      ("leap", "Leap", false);
      ("clay", "Clay", false);
      ("unified", "Unified", false);
      ("star", "Star", true);
      ("calvin", "Calvin", true);
      ("hermes", "Hermes", true);
      ("aria", "Aria", true);
      ("lotus", "Lotus", true);
      ("lion", "Lion", false);
      ("lion-batch", "Lion", true);
      ("epoch", "EpochOCC", false);
    ]
    (List.map (fun (p : Protocols.entry) -> (p.id, p.label, p.batch)) Protocols.all)

(* A 0.3 s skewed run with three planner ticks, so Lion's planner
   acts. *)
let same_run ~batch make_a make_b =
  let run make =
    Runner.run ~seed:3 ~batch ~cfg ~make
      ~gen:(Workloads.ycsb ~seed:4 ~skew:0.8 ~cross:0.5 cfg)
      { Runner.quick with Runner.warmup = 0.1; duration = 0.2; tick_every = 0.1 }
  in
  run make_a = run make_b

(* Each registry constructor against the constructor expression the
   replaced tables used; the last case is the LSTM-off Lion with
   prediction on. *)
let test_registry_matches_direct () =
  List.iter
    (fun (id, config, direct) ->
      let p = Protocols.get id in
      Alcotest.(check bool) id true (same_run ~batch:p.batch (p.make ?config) direct))
    [
      ("lion", None, fun cl -> Lion_core.Standard.create ~name:"Lion" cl);
      ("lion-batch", None, fun cl -> Lion_core.Batch_mode.create ~name:"Lion" cl);
      ("2pc", None, Lion_protocols.Twopc.create);
      ("star", None, Lion_protocols.Star.create);
      ("epoch", None, fun cl -> Lion_protocols.Epoch.create cl);
      ( "lion",
        Some { Planner.default_config with Planner.use_lstm = false },
        fun cl ->
          Lion_core.Standard.create ~name:"Lion"
            ~config:{ Planner.default_config with Planner.use_lstm = false }
            cl );
    ];
  (* The LSTM needs more history than 0.3 s, so check with a planner
     strategy that acts at once that [config] reaches the planner. *)
  let schism = { Planner.default_config with Planner.strategy = Schism_strategy } in
  List.iter
    (fun id ->
      let p = Protocols.get id in
      Alcotest.(check bool) (id ^ " config reaches the planner") false
        (same_run ~batch:p.batch p.make (p.make ~config:schism)))
    [ "lion"; "lion-batch" ]

(* --- the pool --------------------------------------------------- *)

(* Deterministic busy work of about [cost] units, so cells finish out
   of order on several domains. *)
let spin cost =
  let acc = ref cost in
  for i = 1 to cost * 2000 do
    acc := (!acc * 31) + i land 0xffff
  done;
  !acc

let test_pool_order () =
  let xs = List.init 100 Fun.id in
  let want = List.map (fun x -> (x, spin ((x * 7) mod 13))) xs in
  List.iter
    (fun domains ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%d domains" domains)
        want
        (Pool.map ~domains (fun x -> (x, spin ((x * 7) mod 13))) xs))
    [ 1; 2; 4 ];
  Alcotest.(check (list int)) "more domains than cells" [ 1; 2; 3 ]
    (Pool.map ~domains:8 succ [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "no cells" [] (Pool.map ~domains:4 Fun.id [])

let test_pool_one_domain_spawns_nothing () =
  let self = (Domain.self () :> int) in
  let seen = Pool.map ~domains:1 (fun _ -> (Domain.self () :> int)) (List.init 20 Fun.id) in
  Alcotest.(check bool) "every cell on the calling domain" true
    (List.for_all (( = ) self) seen)

exception Cell of int

let test_pool_lowest_exception () =
  (* Cell 3 is slow, so with several domains cells 9 and 14 usually
     raise first; the pool must still report cell 3. *)
  let f i =
    if i = 3 then (
      ignore (spin 200);
      raise (Cell 3));
    if i = 9 || i = 14 then raise (Cell i);
    spin 5
  in
  List.iter
    (fun domains ->
      match Pool.map ~domains f (List.init 20 Fun.id) with
      | _ -> Alcotest.fail "no exception"
      | exception Cell i ->
          Alcotest.(check int) (Printf.sprintf "%d domains" domains) 3 i)
    [ 1; 2; 4 ]

let prop_pool_domain_count =
  QCheck.Test.make ~name:"results equal at 1, 2 and 4 domains" ~count:30
    QCheck.(list_of_size (Gen.int_range 0 40) (int_range 0 30))
    (fun costs ->
      let run domains = Pool.map ~domains spin costs in
      let one = run 1 in
      one = run 2 && one = run 4)

(* [Runner.cells] hands each cell's tracers to [emit] from the calling
   domain, in cell order. *)
let test_cells_emit_in_order () =
  let caller = Domain.self () in
  let emitted = ref [] in
  let trace =
    {
      Runner.fresh = (fun () -> Lion_trace.Trace.create ());
      emit =
        (fun t ->
          Alcotest.(check bool) "emit on the calling domain" true (Domain.self () = caller);
          emitted := t :: !emitted);
    }
  in
  let cell ?trace i =
    let s = Option.get trace in
    let a = s.Runner.fresh () in
    ignore (spin ((i * 5) mod 11));
    let b = s.Runner.fresh () in
    s.emit a;
    s.emit b;
    [ a; b ]
  in
  let got = List.concat (Runner.cells ~domains:3 ~trace cell (List.init 12 Fun.id)) in
  Alcotest.(check int) "every tracer emitted" (List.length got) (List.length !emitted);
  Alcotest.(check bool) "in cell order" true (List.for_all2 ( == ) got (List.rev !emitted))

let test_fig6_pooled () =
  let got =
    Golden.capture_stdout (fun () ->
        Lion_harness.Experiments.fig6_ablation ~domains:3 ~scale:0.05 ())
  in
  Alcotest.(check string) "fig6 at 3 domains matches the golden capture"
    (Golden.read_file Golden.fig6_path) got

let () =
  Alcotest.run "lion_harness"
    [
      ( "workloads",
        [
          Alcotest.test_case "ycsb parametrised" `Quick test_ycsb_builder_parametrised;
          Alcotest.test_case "ycsb one generator" `Quick test_ycsb_builder_reuses_generator;
          Alcotest.test_case "tpcc builder" `Quick test_tpcc_builder;
          Alcotest.test_case "dynamic respects time" `Quick test_dynamic_builder_respects_time;
        ] );
      ( "export",
        [
          Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
          Alcotest.test_case "series shape" `Quick test_series_csv_shape;
          Alcotest.test_case "result rows" `Quick test_result_rows_header_matches_rows;
          Alcotest.test_case "result row width" `Quick test_result_rows_width;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "id label batch" `Quick test_registry_table;
          Alcotest.test_case "matches direct constructors" `Quick
            test_registry_matches_direct;
        ] );
      ( "pool",
        [
          Alcotest.test_case "preserves order" `Quick test_pool_order;
          Alcotest.test_case "one domain spawns nothing" `Quick
            test_pool_one_domain_spawns_nothing;
          Alcotest.test_case "lowest-index exception wins" `Quick test_pool_lowest_exception;
          QCheck_alcotest.to_alcotest prop_pool_domain_count;
          Alcotest.test_case "traces emitted in cell order" `Quick test_cells_emit_in_order;
          Alcotest.test_case "fig6 at 3 domains matches golden" `Slow test_fig6_pooled;
        ] );
    ]
