(* Fault-schedule fuzzer tests: corpus cases replay to their recorded
   verdicts (including the re-planted phantom-secondary bug and the
   long-partition resync regression the fuzzer found), generation and
   campaigns are deterministic, the ddmin shrinker reduces a noisy
   failing schedule back to its essential op, JSON round-trips
   byte-for-byte, and the liveness audit flags a wedged run that the
   safety audit alone would pass. *)

module Config = Lion_store.Config
module Fault = Lion_sim.Fault
module Rng = Lion_kernel.Rng
module Fuzz = Lion_audit.Fuzz
module Liveness = Lion_audit.Liveness
module Drive = Lion_audit.Drive
module Nemesis = Lion_audit.Nemesis
module Workloads = Lion_harness.Workloads

let protos = [ "2pc"; "lion"; "lion-batch" ]

let verdict = Alcotest.testable (Fmt.of_to_string Fuzz.verdict_name) ( = )

(* --- corpus: every committed case replays to its recorded verdict --- *)

let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (Filename.concat "corpus")

let test_corpus_replays () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus is not empty" true (files <> []);
  List.iter
    (fun path ->
      match Fuzz.load_file path with
      | Error msg -> Alcotest.failf "%s: unreadable: %s" path msg
      | Ok (case, expect) ->
          let r = Fuzz.run_case case in
          Alcotest.(check verdict)
            (Printf.sprintf "%s replays (signals: %s)" path
               (String.concat " " r.Fuzz.signature))
            expect r.Fuzz.verdict)
    files

(* The two sides of the re-planted bug, pinned explicitly: the same
   minimized crash schedule diverges with the flag on and audits clean
   with it off — the purge in the election callback is load-bearing. *)
let test_phantom_flag_controls_verdict () =
  match Fuzz.load_file "corpus/fuzz-s7-r041-min.json" with
  | Error msg -> Alcotest.failf "corpus case unreadable: %s" msg
  | Ok (case, _) ->
      Alcotest.(check bool) "corpus case has the flag on" true case.Fuzz.phantom;
      let on = Fuzz.run_case case in
      let off = Fuzz.run_case { case with Fuzz.phantom = false } in
      Alcotest.(check verdict) "flag on: divergence" Fuzz.Safety on.Fuzz.verdict;
      Alcotest.(check verdict) "flag off: clean" Fuzz.Clean off.Fuzz.verdict

(* --- determinism --- *)

let test_generate_deterministic () =
  let gen () =
    let rng = Rng.create 99 in
    Fuzz.generate rng ~protos ~phantom:false ~name:"g"
  in
  Alcotest.(check bool) "same seed, same case" true (gen () = gen ())

let test_run_case_deterministic () =
  match Fuzz.load_file "corpus/resync-long-partition.json" with
  | Error msg -> Alcotest.failf "corpus case unreadable: %s" msg
  | Ok (case, _) ->
      let a = Fuzz.run_case case in
      let b = Fuzz.run_case case in
      Alcotest.(check (list string))
        "same coverage signature" a.Fuzz.signature b.Fuzz.signature;
      Alcotest.(check verdict) "same verdict" a.Fuzz.verdict b.Fuzz.verdict

let test_campaign_deterministic () =
  let run () =
    let buf = Buffer.create 256 in
    let res =
      Fuzz.campaign ~rounds:2 ~shrink_failures:false
        ~log:(fun l ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n')
        ~seed:11 ~phantom:false ~protos ()
    in
    (Buffer.contents buf, res.Fuzz.pool_size, List.length res.Fuzz.failures)
  in
  let la, pa, fa = run () and lb, pb, fb = run () in
  Alcotest.(check string) "same log" la lb;
  Alcotest.(check int) "same pool size" pa pb;
  Alcotest.(check int) "same failures" fa fb

(* --- ddmin shrinker --- *)

let test_shrink_recovers_essential_op () =
  (* The minimized corpus crash plus three irrelevant noise ops: the
     shrinker must strip the noise and keep a <=3-op (here 1-op)
     schedule that still reproduces the divergence. *)
  match Fuzz.load_file "corpus/fuzz-s7-r041-min.json" with
  | Error msg -> Alcotest.failf "corpus case unreadable: %s" msg
  | Ok (case, _) ->
      let noisy =
        {
          case with
          Fuzz.name = "noisy";
          ops =
            case.Fuzz.ops
            @ [
                Fuzz.Lossy { pct = 10; at_us = 200_000; dur_us = 300_000 };
                Fuzz.Straggle
                  { node = 2; factor = 3; at_us = 600_000; dur_us = 400_000 };
                Fuzz.Slow_link
                  { dst = 2; extra_us = 5_000; at_us = 900_000; dur_us = 300_000 };
              ];
        }
      in
      let r = Fuzz.run_case noisy in
      Alcotest.(check verdict) "noisy case still fails" Fuzz.Safety r.Fuzz.verdict;
      let mini, runs = Fuzz.shrink noisy Fuzz.Safety in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to %d op(s) in %d runs"
           (List.length mini.Fuzz.ops) runs)
        true
        (List.length mini.Fuzz.ops <= 3);
      let r' = Fuzz.run_case mini in
      Alcotest.(check verdict) "minimized case reproduces" Fuzz.Safety
        r'.Fuzz.verdict

(* --- JSON corpus format --- *)

let kitchen_sink =
  {
    Fuzz.name = "kitchen-sink";
    seed = 12345;
    proto = "2pc";
    seconds = 2;
    clients = 5;
    phantom = false;
    overload = true;
    skew_pct = 90;
    cross_pct = 30;
    ops =
      [
        Fuzz.Crash { node = 1; at_us = 100_000; downtime_us = 400_000 };
        Fuzz.Isolate { node = 2; at_us = 200_000; dur_us = 300_000 };
        Fuzz.Straggle { node = 0; factor = 4; at_us = 300_000; dur_us = 200_000 };
        Fuzz.Slow_link { dst = 3; extra_us = 8_000; at_us = 400_000; dur_us = 250_000 };
        Fuzz.Lossy { pct = 15; at_us = 500_000; dur_us = 200_000 };
        Fuzz.Burst { node = 1; at_us = 600_000; dur_us = 300_000 };
        Fuzz.Join { node = 4; at_us = 700_000 };
        Fuzz.Decommission { node = 2; at_us = 800_000 };
        Fuzz.Crash_rejoin { node = 3; at_us = 900_000; cycles = 2 };
      ];
  }

let test_json_round_trip () =
  let s = Fuzz.to_json ~expect:Fuzz.Liveness kitchen_sink in
  match Fuzz.of_json s with
  | Error msg -> Alcotest.failf "of_json failed: %s" msg
  | Ok (case, expect) ->
      Alcotest.(check bool) "case survives" true (case = kitchen_sink);
      Alcotest.(check verdict) "expect survives" Fuzz.Liveness expect;
      Alcotest.(check string) "byte-stable" s (Fuzz.to_json ~expect case)

let test_json_rejects_garbage () =
  let bad s =
    match Fuzz.of_json s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "not json" true (bad "{nope");
  Alcotest.(check bool) "wrong version" true
    (bad "{\"version\": 2, \"name\": \"x\"}");
  let meteor =
    let s = Fuzz.to_json ~expect:Fuzz.Clean kitchen_sink in
    (* Rename the first op kind to something unknown. *)
    let marker = "\"op\":\"crash\"" in
    match String.index_opt s '[' with
    | None -> s
    | Some _ ->
        let i =
          let rec find i =
            if i + String.length marker > String.length s then -1
            else if String.sub s i (String.length marker) = marker then i
            else find (i + 1)
          in
          find 0
        in
        if i < 0 then s
        else
          String.sub s 0 i ^ "\"op\":\"meteor\""
          ^ String.sub s
              (i + String.length marker)
              (String.length s - i - String.length marker)
  in
  Alcotest.(check bool) "unknown op" true (bad meteor)

(* A literal is read whole: the old reader took any token starting
   with [t] or [f] as a boolean, so a corrupt flag silently flipped the
   planted bug on. Integer fields take integers only. *)
let test_json_rejects_malformed_literals () =
  let text = Fuzz.to_json ~expect:Fuzz.Clean kitchen_sink in
  let with_field key value =
    let prefix = Printf.sprintf "\"%s\": " key in
    let i =
      let rec find i =
        if String.sub text i (String.length prefix) = prefix then i else find (i + 1)
      in
      find 0
    in
    let j = String.index_from text i ',' in
    String.sub text 0 (i + String.length prefix)
    ^ value
    ^ String.sub text j (String.length text - j)
  in
  let rejected s = match Fuzz.of_json s with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "well-formed flag reads" false
    (rejected (with_field "phantom" "false"));
  Alcotest.(check bool) "tXYZ" true (rejected (with_field "phantom" "tXYZ"));
  Alcotest.(check bool) "fals9" true (rejected (with_field "phantom" "fals9"));
  Alcotest.(check bool) "fractional seed" true (rejected (with_field "seed" "7.5"))

(* --- liveness audit --- *)

let test_plan_horizon () =
  Alcotest.(check (float 0.0)) "empty plan" 0.0 (Liveness.plan_horizon []);
  let plan =
    [
      Fault.crash ~node:1 ~at:5.0 ~recover_at:9.0 ();
      Fault.drop ~prob:0.1 ~from_:1.0 ~until:12.0 ();
    ]
  in
  Alcotest.(check (float 0.0)) "latest window" 12.0 (Liveness.plan_horizon plan);
  let plan = [ Fault.crash ~node:1 ~at:7.0 () ] in
  Alcotest.(check (float 0.0)) "unrecovered crash" 7.0
    (Liveness.plan_horizon plan)

let test_healthy_run_is_clean () =
  let cfg = Config.default in
  let o =
    Drive.run ~seed:3 ~clients:4 ~duration:1.0 ~cfg
      ~make:(Lion_harness.Protocols.get "2pc").make
      ~gen:(Workloads.ycsb ~cross:0.3 cfg)
      ~nemesis:Nemesis.calm ()
  in
  Alcotest.(check bool) "passed" true (Drive.passed o);
  Alcotest.(check bool) "not exhausted" false o.Drive.exhausted;
  Alcotest.(check bool) "liveness clean" true (Liveness.clean o.Drive.liveness);
  Alcotest.(check bool) "healthy" true (Drive.healthy o)

let test_liveness_flags_wedged_run () =
  (* Starve the drain with a tiny event budget: the run stops mid-air
     with admitted transactions unresolved. The safety verdict still
     PASSES — the truncated history is a clean prefix — which is
     exactly the gap the liveness audit closes: the exhaustion and the
     stuck transactions are reported as findings and [healthy] says
     no. The budget only bounds the post-horizon drain, so it must be
     smaller than the in-flight tail at the horizon. *)
  let cfg = Config.default in
  let o =
    Drive.run ~seed:3 ~clients:8 ~duration:1.0 ~max_events:50 ~cfg
      ~make:(Lion_harness.Protocols.get "2pc").make
      ~gen:(Workloads.ycsb ~cross:0.3 cfg)
      ~nemesis:Nemesis.calm ()
  in
  Alcotest.(check bool) "safety audit alone passes" true (Drive.passed o);
  Alcotest.(check bool) "exhausted" true o.Drive.exhausted;
  Alcotest.(check bool) "pending events reported" true (o.Drive.pending_events > 0);
  let names =
    List.map Liveness.finding_name o.Drive.liveness.Liveness.findings
  in
  Alcotest.(check bool)
    (Printf.sprintf "exhaustion is a liveness finding (got: %s)"
       (String.concat " " names))
    true
    (List.mem "event-budget-exhausted" names);
  Alcotest.(check bool) "stuck txns flagged" true (List.mem "stuck-txns" names);
  Alcotest.(check bool) "not healthy" false (Drive.healthy o)

(* --- satellite: recovery while the node is still partitioned --- *)

let test_recover_inside_partition () =
  (* Crash node 1 at 0.3 s for 0.4 s, under an isolation window that
     runs 0.25 s -> 1.5 s: the node rejoins the cluster while it still
     cannot talk to anyone. The rejoin resync and the post-heal
     anti-entropy must still converge every replica by quiescence. *)
  let case =
    {
      Fuzz.name = "recover-inside-partition";
      seed = 21;
      proto = "lion";
      seconds = 2;
      clients = 6;
      phantom = false;
      overload = false;
      skew_pct = 50;
      cross_pct = 30;
      ops =
        [
          Fuzz.Crash { node = 1; at_us = 300_000; downtime_us = 400_000 };
          Fuzz.Isolate { node = 1; at_us = 250_000; dur_us = 1_250_000 };
        ];
    }
  in
  let r = Fuzz.run_case case in
  Alcotest.(check verdict)
    (Printf.sprintf "clean (signals: %s)" (String.concat " " r.Fuzz.signature))
    Fuzz.Clean r.Fuzz.verdict;
  Alcotest.(check bool) "healthy" true (Drive.healthy r.Fuzz.outcome)

(* One lion case holding one op of each of the nine kinds, pinned to
   the counts, drain time and coverage signature it produced when
   first recorded: a drifted recipe constant, window or spec order in
   any op's fault plan moves one of them. *)
let test_every_op_kind () =
  let case = { kitchen_sink with Fuzz.name = "every-op-kind"; proto = "lion" } in
  let r = Fuzz.run_case case in
  let res = r.Fuzz.outcome.Drive.result in
  Alcotest.(check verdict) "clean" Fuzz.Clean r.Fuzz.verdict;
  Alcotest.(check int) "commits" 26312 res.Lion_harness.Runner.commits;
  Alcotest.(check int) "aborts" 557 res.Lion_harness.Runner.aborts;
  Alcotest.(check (float 0.0)) "final time" 2_680_000.0 r.Fuzz.outcome.Drive.final_time;
  Alcotest.(check (list string))
    "signature"
    [
      "b:election-promote"; "b:node-crash"; "b:node-decommission"; "b:node-join";
      "b:node-recover"; "b:phantom-purge"; "b:remaster-abandon"; "b:remaster-complete";
      "b:resync-apply"; "m:aborts"; "m:breaker-half-opens"; "m:breaker-opens";
      "m:breaker-rejects"; "m:drops"; "m:remasters"; "m:retries"; "m:stale-acks";
      "m:timeouts";
    ]
    r.Fuzz.signature

let () =
  Alcotest.run "lion_fuzz"
    [
      ( "corpus",
        [
          Alcotest.test_case "all cases replay" `Quick test_corpus_replays;
          Alcotest.test_case "phantom flag controls verdict" `Quick
            test_phantom_flag_controls_verdict;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "generate" `Quick test_generate_deterministic;
          Alcotest.test_case "run_case" `Quick test_run_case_deterministic;
          Alcotest.test_case "campaign" `Quick test_campaign_deterministic;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "ddmin strips noise ops" `Quick
            test_shrink_recovers_essential_op;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "rejects malformed literals" `Quick
            test_json_rejects_malformed_literals;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "plan horizon" `Quick test_plan_horizon;
          Alcotest.test_case "healthy run is clean" `Quick
            test_healthy_run_is_clean;
          Alcotest.test_case "wedged run flagged, safety passes" `Quick
            test_liveness_flags_wedged_run;
        ] );
      ( "faults",
        [
          Alcotest.test_case "recover inside active partition" `Quick
            test_recover_inside_partition;
          Alcotest.test_case "every op kind" `Quick test_every_op_kind;
        ] );
    ]
