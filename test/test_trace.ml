(* Tests for the causal tracing subsystem: sampling/retention policies,
   the critical-path invariant (per-phase blame sums to the recorded
   latency), byte-identical Chrome export across identical runs, and
   no perturbation of simulation results when a tracer is attached. *)

module Config = Lion_store.Config
module Runner = Lion_harness.Runner
module Workloads = Lion_harness.Workloads
module Protocols = Lion_harness.Protocols
module Metrics = Lion_sim.Metrics
module Trace = Lion_trace.Trace
module Critical_path = Lion_trace.Critical_path
module Chrome = Lion_trace.Chrome

(* ---------------- sampling / retention policies ---------------- *)

let finish_one t ~txn_id ~dur ~aborts =
  match Trace.start_txn t ~ts:0.0 ~txn_id with
  | None -> ()
  | Some _ as ctx ->
      for _ = 1 to aborts do
        Trace.note_abort ~ts:1.0 ctx
      done;
      Trace.finish_txn ~ts:dur ~ok:true ctx

let test_policy_every () =
  let t = Trace.create ~policy:(Trace.Every 3) () in
  for i = 0 to 8 do
    finish_one t ~txn_id:i ~dur:10.0 ~aborts:0
  done;
  Alcotest.(check int) "started" 9 (Trace.started t);
  Alcotest.(check int) "every 3rd sampled" 3 (Trace.sampled t);
  Alcotest.(check int) "all sampled kept" 3 (List.length (Trace.retained t))

let test_policy_slowest () =
  let t = Trace.create ~policy:(Trace.Slowest 2) () in
  List.iteri
    (fun i d -> finish_one t ~txn_id:i ~dur:d ~aborts:0)
    [ 5.0; 50.0; 1.0; 30.0 ];
  let durs =
    List.map (fun (tr : Trace.trace) -> tr.Trace.duration) (Trace.retained t)
    |> List.sort compare
  in
  Alcotest.(check (list (float 0.0))) "two slowest kept" [ 30.0; 50.0 ] durs

let test_policy_on_abort () =
  let t = Trace.create ~policy:Trace.On_abort () in
  finish_one t ~txn_id:0 ~dur:10.0 ~aborts:0;
  finish_one t ~txn_id:1 ~dur:10.0 ~aborts:2;
  match Trace.retained t with
  | [ tr ] ->
      Alcotest.(check int) "the aborted txn" 1 tr.Trace.txn_id;
      Alcotest.(check int) "abort count" 2 tr.Trace.aborts
  | kept -> Alcotest.failf "expected 1 kept trace, got %d" (List.length kept)

let test_span_cap () =
  let t = Trace.create ~policy:Trace.All ~span_cap:3 () in
  let ctx = Trace.start_txn t ~ts:0.0 ~txn_id:0 in
  let c1 = Trace.child ~name:"a" ~ts:1.0 ctx in
  let c2 = Trace.child ~name:"b" ~ts:2.0 ctx in
  let c3 = Trace.child ~name:"c" ~ts:3.0 ctx in
  Alcotest.(check bool) "below cap" true (c1 <> None && c2 <> None);
  Alcotest.(check bool) "capped" true (c3 = None);
  Trace.finish_txn ~ts:10.0 ~ok:true ctx

(* ---------------- critical path on a hand-built trace ---------------- *)

let test_critical_path_hand_built () =
  let t = Trace.create ~policy:Trace.All () in
  let root = Trace.start_txn t ~ts:0.0 ~txn_id:7 in
  (* Two sequential children: A [10,20], B [25,40]. Walking backwards
     from 50, B gates [25,40], A gates [10,20], the root owns the gaps
     [0,10], [20,25] and [40,50]. *)
  let a = Trace.child ~phase:Execution ~name:"A" ~ts:10.0 root in
  Trace.finish ~ts:20.0 a;
  let b = Trace.child ~phase:Prepare ~name:"B" ~ts:25.0 root in
  Trace.finish ~ts:40.0 b;
  Trace.finish_txn ~ts:50.0 ~ok:true root;
  let tr = List.hd (Trace.retained t) in
  let segs = Critical_path.segments tr in
  let sum =
    List.fold_left
      (fun acc (s : Critical_path.segment) ->
        Alcotest.(check bool) "segment well-formed" true
          (s.Critical_path.until_ts >= s.Critical_path.from_ts);
        acc +. (s.Critical_path.until_ts -. s.Critical_path.from_ts))
      0.0 segs
  in
  Alcotest.(check (float 1e-9)) "segments partition the root" 50.0 sum;
  let totals = Critical_path.phase_totals tr in
  let blame p = try List.assoc p totals with Not_found -> 0.0 in
  Alcotest.(check (float 1e-9)) "B's window" 15.0 (blame Trace.Prepare);
  Alcotest.(check (float 1e-9)) "A's window" 10.0 (blame Trace.Execution);
  Alcotest.(check (float 1e-9)) "root gaps" 25.0 (blame Trace.Scheduling)

(* ---------------- end-to-end runs ---------------- *)

let small_rc = { Runner.quick with clients = 8; warmup = 0.2; duration = 0.3 }

let run_2pc ?tracer ~seed () =
  let cfg = Config.default in
  Runner.run ~seed ?tracer ~cfg
    ~make:(fun cl -> Lion_protocols.Twopc.create cl)
    ~gen:(Workloads.ycsb ~seed ~cross:0.5 cfg)
    small_rc

let check_sums tracer =
  let traces = Trace.retained tracer in
  Alcotest.(check bool) "retained some traces" true (traces <> []);
  List.iter
    (fun (tr : Trace.trace) ->
      let sum =
        List.fold_left
          (fun acc (_, d) -> acc +. d)
          0.0
          (Critical_path.phase_totals tr)
      in
      Alcotest.(check (float 0.1)) "critical path sums to latency"
        tr.Trace.duration sum)
    traces

let test_sum_standard () =
  let tracer = Trace.create ~policy:(Trace.Slowest 5) () in
  let _ = run_2pc ~tracer ~seed:11 () in
  check_sums tracer

let test_sum_batch () =
  let cfg = Config.default in
  let tracer = Trace.create ~policy:(Trace.Slowest 5) () in
  let _ =
    Runner.run ~seed:11 ~batch:true ~tracer ~cfg
      ~make:(fun cl -> Lion_protocols.Calvin.create cl)
      ~gen:(Workloads.ycsb ~seed:11 ~cross:0.5 cfg)
      { small_rc with clients = 32; duration = 0.5 }
  in
  check_sums tracer

(* A transaction's recorded phases are its trace's critical path: with
   every transaction traced from t = 0, the per-phase critical-path
   time summed over the committed traces gives each protocol's
   [Runner.phase_fractions]. Metrics records a batch engine's forced
   commit (its trace closes not ok) and never a standard engine's
   give-up. *)
let phases_match_traces ~cfg ~clients (e : Protocols.entry) =
  let tracer = Trace.create ~policy:Trace.All () in
  let r =
    Runner.run ~seed:3 ~batch:e.Protocols.batch ~tracer ~cfg
      ~make:(fun cl -> e.Protocols.make cl)
      ~gen:(Workloads.ycsb ~seed:3 ~skew:0.8 ~cross:0.5 cfg)
      { small_rc with clients; warmup = 0.0; duration = 0.05 }
  in
  let traces =
    List.filter (fun (tr : Trace.trace) -> tr.Trace.ok || e.Protocols.batch)
      (Trace.retained tracer)
  in
  Alcotest.(check bool) (e.id ^ ": commits") true (r.Runner.commits > 0);
  Alcotest.(check int) (e.id ^ ": every commit traced") r.Runner.commits
    (List.length traces);
  let totals = Hashtbl.create 8 and sum = ref 0.0 in
  List.iter
    (fun tr ->
      List.iter
        (fun (phase, d) ->
          let acc = Option.value ~default:0.0 (Hashtbl.find_opt totals phase) in
          Hashtbl.replace totals phase (acc +. d);
          sum := !sum +. d)
        (Critical_path.phase_totals tr))
    traces;
  List.iter
    (fun (p, frac) ->
      let traced = Option.value ~default:0.0 (Hashtbl.find_opt totals p) in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "%s: %s" e.id (Metrics.phase_name p))
        frac (traced /. !sum))
    r.Runner.phase_fractions;
  r

let test_phases_match_traces () =
  List.iter
    (fun e -> ignore (phases_match_traces ~cfg:Config.default ~clients:100 e))
    Protocols.all;
  (* Under overload (bounded worker queues, deadlines, retry budgets,
     128 clients on 32 workers), sheds, aborted attempts and their
     backoff sit on the standard engines' critical paths. *)
  let cfg = Config.with_overload_defaults Config.default in
  List.iter
    (fun (e : Protocols.entry) ->
      if not e.Protocols.batch then
        let r = phases_match_traces ~cfg ~clients:128 e in
        Alcotest.(check bool) (e.id ^ ": attempts failed under overload") true
          (r.Runner.aborts > 0))
    Protocols.all

let test_sum_with_queue_phase () =
  (* Saturate the coordinator worker pools (128 closed-loop clients vs
     32 workers, overload preset on) so admission waits open their own
     [worker-wait] spans — the critical path must still partition the
     root exactly, and such a wait must actually gate some path. *)
  let cfg = Config.with_overload_defaults Config.default in
  let tracer = Trace.create ~policy:(Trace.Slowest 16) () in
  let _ =
    Runner.run ~seed:11 ~tracer ~cfg
      ~make:(fun cl -> Lion_protocols.Twopc.create cl)
      ~gen:(Workloads.ycsb ~seed:11 ~cross:0.5 cfg)
      { small_rc with clients = 128; duration = 0.5 }
  in
  check_sums tracer;
  let has_wait =
    List.exists
      (fun (tr : Trace.trace) ->
        List.exists
          (fun (s : Trace.span) ->
            s.Trace.name = "worker-wait" && s.Trace.phase = Trace.Scheduling
            && Trace.span_duration s > 0.0)
          (Critical_path.path_spans tr))
      (Trace.retained tracer)
  in
  Alcotest.(check bool) "worker wait on some critical path" true has_wait

let test_deterministic_export () =
  let json () =
    let tracer = Trace.create ~policy:(Trace.Slowest 3) () in
    let _ = run_2pc ~tracer ~seed:7 () in
    Chrome.to_json ~label:"det" (Trace.retained tracer)
  in
  let a = json () and b = json () in
  Alcotest.(check bool) "export non-trivial" true (String.length a > 100);
  Alcotest.(check string) "byte-identical across runs" a b

let test_tracer_no_perturbation () =
  let a = run_2pc ~seed:3 () in
  let b = run_2pc ~tracer:(Trace.create ~policy:Trace.All ()) ~seed:3 () in
  Alcotest.(check int) "commits" a.Runner.commits b.Runner.commits;
  Alcotest.(check int) "aborts" a.Runner.aborts b.Runner.aborts;
  Alcotest.(check (float 0.0)) "p95" a.Runner.p95 b.Runner.p95;
  Alcotest.(check (float 0.0)) "mean latency" a.Runner.mean_latency
    b.Runner.mean_latency

(* Lion standard on skewed, half-cross YCSB, traced one transaction in
   seven: traced and untraced commits land on the same group-commit
   boundaries, whose one flush event closes the traced ones' spans. The
   untraced run's results must come out exactly. *)
let test_lion_no_perturbation () =
  let run ?tracer () =
    let cfg = Config.default in
    Runner.run ~seed:5 ?tracer ~cfg
      ~make:(fun cl -> Lion_core.Standard.create ~name:"Lion" cl)
      ~gen:(Workloads.ycsb ~seed:5 ~skew:0.8 ~cross:0.5 cfg)
      small_rc
  in
  let tracer = Trace.create ~policy:(Trace.Every 7) () in
  let a = run () and b = run ~tracer () in
  Alcotest.(check bool) "some traced" true (Trace.finished tracer > 0);
  Alcotest.(check bool) "some untraced" true (Trace.sampled tracer < Trace.started tracer);
  Alcotest.(check int) "commits" a.Runner.commits b.Runner.commits;
  Alcotest.(check int) "aborts" a.Runner.aborts b.Runner.aborts;
  Alcotest.(check (float 0.0)) "p50" a.Runner.p50 b.Runner.p50;
  Alcotest.(check (float 0.0)) "p95" a.Runner.p95 b.Runner.p95;
  Alcotest.(check (float 0.0)) "p99" a.Runner.p99 b.Runner.p99;
  Alcotest.(check (float 0.0)) "mean latency" a.Runner.mean_latency b.Runner.mean_latency;
  List.iter2
    (fun (p, x) (_, y) -> Alcotest.(check (float 0.0)) (Lion_sim.Metrics.phase_name p) x y)
    a.Runner.phase_fractions b.Runner.phase_fractions

(* [Metrics.defer_commit] against [record_commit] called at each due
   time, in (due time, arrival) order. The latencies (1e16 beside 1.0)
   make the running latency sum depend on that order, and a
   [reset_window] at 7 µs falls between the deferral and the flush of
   the commits due at 10 µs, which must count in the new window. *)
let test_deferred_commit_order () =
  let module Engine = Lion_sim.Engine in
  let module Metrics = Lion_sim.Metrics in
  let engine = Engine.create () in
  let m = Metrics.create engine and r = Metrics.create engine in
  let tracer = Trace.create ~policy:Trace.All () in
  (* (arrival, delay, latency), in arrival order. *)
  let commits =
    [ (0.0, 10.0, 1e16); (1.0, 4.0, 1.0); (2.0, 8.0, 1.0); (3.0, 7.0, -1e16); (4.0, 6.0, 3.0);
      (5.0, 15.0, 1.0); (6.0, 4.0, 2.0) ]
  in
  let seen = ref [] in
  let probe name =
    Engine.at engine ~time:10.0 (fun () -> seen := (name, Metrics.count m Commits) :: !seen)
  in
  (* Queued before any commit due at 10: it runs before their flush. *)
  probe "before";
  List.iteri
    (fun i (arrival, delay, latency) ->
      Engine.at engine ~time:arrival (fun () ->
          let phases = Metrics.phase_times ~execution:latency ~commit:(float_of_int i) () in
          let root = Trace.start_txn tracer ~ts:arrival ~txn_id:i in
          let span = Trace.child ~phase:Replication ~name:"group-commit-wait" ~ts:arrival root in
          Metrics.defer_commit m ~delay ~late:(i = 3) ~latency ~single_node:(i mod 2 = 0)
            ~remastered:(i = 4) ~phases ~root ~span;
          Engine.schedule engine ~delay (fun () ->
              Metrics.record_commit ~late:(i = 3) r ~latency ~single_node:(i mod 2 = 0)
                ~remastered:(i = 4) ~phases);
          (* Queued after the first commit due at 10 and before the
             rest: the flush takes the first one's place and replays
             them all. *)
          if i = 0 then probe "after"))
    commits;
  Engine.at engine ~time:7.0 (fun () ->
      Metrics.reset_window m;
      Metrics.reset_window r);
  Engine.run_all engine ();
  Alcotest.(check (list (pair string int)))
    "probes at 10" [ ("before", 0); ("after", 5) ] (List.rev !seen);
  (* The commit due at 5 fell before the reset; the six after it count. *)
  Alcotest.(check int) "pending commits kept" 6 (Metrics.count m Commits);
  List.iter
    (fun c -> Alcotest.(check int) (Metrics.name c) (Metrics.count r c) (Metrics.count m c))
    Metrics.all;
  Alcotest.(check (float 0.0)) "mean latency" (Metrics.mean_latency r) (Metrics.mean_latency m);
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0)) (Metrics.phase_name p) (Metrics.phase_fraction r p)
        (Metrics.phase_fraction m p))
    Metrics.all_phases;
  Alcotest.(check (array (float 0.0))) "goodput series" (Metrics.goodput_series r)
    (Metrics.goodput_series m);
  (* Each trace closed at its due time. *)
  Alcotest.(check int) "traces finished" (List.length commits) (Trace.finished tracer);
  List.iter
    (fun (tr : Trace.trace) ->
      let _, delay, _ = List.nth commits tr.Trace.txn_id in
      Alcotest.(check (float 0.0)) "closed when due" delay tr.Trace.duration)
    (Trace.retained tracer)

let () =
  Alcotest.run "lion_trace"
    [
      ( "policy",
        [
          Alcotest.test_case "every nth" `Quick test_policy_every;
          Alcotest.test_case "slowest k" `Quick test_policy_slowest;
          Alcotest.test_case "on abort" `Quick test_policy_on_abort;
          Alcotest.test_case "span cap" `Quick test_span_cap;
        ] );
      ( "critical path",
        [
          Alcotest.test_case "hand-built walk" `Quick
            test_critical_path_hand_built;
          Alcotest.test_case "sums to latency (2PC)" `Quick test_sum_standard;
          Alcotest.test_case "sums to latency (batch)" `Quick test_sum_batch;
          Alcotest.test_case "sums to latency with queue phase" `Quick
            test_sum_with_queue_phase;
          Alcotest.test_case "phases are the critical path" `Quick
            test_phases_match_traces;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical export" `Quick
            test_deterministic_export;
          Alcotest.test_case "tracer does not perturb" `Quick
            test_tracer_no_perturbation;
          Alcotest.test_case "tracer does not perturb lion" `Quick
            test_lion_no_perturbation;
          Alcotest.test_case "deferred commits replay in order" `Quick
            test_deferred_commit_order;
        ] );
    ]
