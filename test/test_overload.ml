(* Fixed-seed overload and graceful-degradation tests
   (docs/OVERLOAD.md): open-loop driving is deterministic and honest
   about offered load, the metastable-failure repro keeps its shape
   (unprotected goodput stays collapsed after the trigger, protected
   recovers), and retry budgets + breakers + deadlines win goodput past
   saturation. *)

module Config = Lion_store.Config
module Runner = Lion_harness.Runner
module Overload = Lion_harness.Overload
module Workloads = Lion_harness.Workloads

let twopc cl = Lion_protocols.Twopc.create cl

let open_loop ~seed ~rate ~duration =
  let cfg = Config.default in
  Runner.run ~seed ~cfg ~make:twopc
    ~gen:(Workloads.ycsb ~seed ~skew:0.8 ~cross:0.5 cfg)
    {
      Runner.quick with
      warmup = 0.5;
      duration;
      arrival = Runner.Poisson rate;
    }

let test_open_loop_deterministic () =
  let a = open_loop ~seed:9 ~rate:15_000.0 ~duration:1.0
  and b = open_loop ~seed:9 ~rate:15_000.0 ~duration:1.0 in
  Alcotest.(check int) "commits" a.Runner.commits b.Runner.commits;
  Alcotest.(check int) "aborts" a.Runner.aborts b.Runner.aborts;
  Alcotest.(check (float 0.0)) "p99 bit-identical" a.Runner.p99 b.Runner.p99;
  Alcotest.(check (float 0.0)) "offered bit-identical" a.Runner.offered
    b.Runner.offered

let test_open_loop_offered_tracks_rate () =
  let r = open_loop ~seed:4 ~rate:10_000.0 ~duration:2.0 in
  let err = Float.abs (r.Runner.offered -. 10_000.0) /. 10_000.0 in
  Alcotest.(check bool) "offered within 10% of the Poisson rate" true
    (err < 0.1);
  (* Below saturation the system keeps up: goodput tracks offered. *)
  Alcotest.(check bool) "keeps up below saturation" true
    (r.Runner.goodput > 0.9 *. r.Runner.offered)

let test_uniform_arrivals_deterministic_gap () =
  (* Deterministic arrivals admit the rate's integral over the 1 s
     measured window to within one transaction — no randomness in the
     gaps at all: a constant 1000 txn/s, and a linear ramp from 1000
     txn/s at t=0 to 3000 at the end of the run (0.5 s warmup + 1 s),
     whose integral over [0.5, 1.5] is 2333.3. *)
  let cfg = Config.default in
  let offered rate =
    (Runner.run ~seed:2 ~cfg ~make:twopc
       ~gen:(Workloads.ycsb ~seed:2 ~skew:0.8 ~cross:0.5 cfg)
       {
         Runner.quick with
         warmup = 0.5;
         duration = 1.0;
         arrival = Runner.Uniform rate;
       })
      .Runner.offered
  in
  let slope = 2_000.0 /. 1.5 in
  let ramp t = 1_000.0 +. (slope *. t) in
  let ramp_integral a b = (1_000.0 *. (b -. a)) +. (slope *. ((b *. b) -. (a *. a)) /. 2.0) in
  List.iter
    (fun (name, rate, expect) ->
      let got = offered rate in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f arrivals, integral %.1f" name got expect)
        true
        (Float.abs (got -. expect) <= 1.0))
    [
      ("constant", Fun.const 1_000.0, 1_000.0);
      ("ramp", ramp, ramp_integral 0.5 1.5);
    ]

let test_metastable_shape () =
  match Overload.metastable_pair ~seed:1 ~scale:0.35 () with
  | [ unprot; prot ] ->
      Alcotest.(check bool) "peaks sane" true
        (unprot.Overload.peak > 0.0 && prot.Overload.peak > 0.0);
      (* The acceptance shape: without budgets goodput stays under 50%
         of peak long after the trigger cleared; with budgets +
         breakers + enforced deadlines it recovers past 90%. *)
      Alcotest.(check bool)
        (Printf.sprintf "unprotected stays collapsed (tail/peak %.2f)"
           (unprot.Overload.tail /. unprot.Overload.peak))
        true
        (unprot.Overload.tail < 0.5 *. unprot.Overload.peak);
      Alcotest.(check bool)
        (Printf.sprintf "protected recovers (tail/peak %.2f)"
           (prot.Overload.tail /. prot.Overload.peak))
        true
        (prot.Overload.tail > 0.9 *. prot.Overload.peak);
      (* The mechanism: only the protected side sheds its zombie
         backlog; the unprotected side keeps committing stale work. *)
      Alcotest.(check int) "unprotected never gives up" 0
        unprot.Overload.result.Runner.deadline_giveups;
      Alcotest.(check bool) "protected sheds the backlog" true
        (prot.Overload.result.Runner.deadline_giveups > 0);
      Alcotest.(check bool) "unprotected commits go stale instead" true
        (Runner.count unprot.Overload.result Deadline_misses > 0)
  | _ -> Alcotest.fail "metastable_pair returned wrong arity"

let test_budget_wins_past_saturation () =
  let goodput protect =
    match
      (Overload.sweep_one ~seed:1 ~scale:0.25 ~protect ~ratios:[ 1.5 ]
         (Lion_harness.Protocols.get "2pc"))
        .Overload.points
    with
    | [ p ] -> p.Overload.result.Runner.goodput
    | _ -> Alcotest.fail "expected exactly one sweep point"
  in
  let unprot = goodput false and prot = goodput true in
  Alcotest.(check bool)
    (Printf.sprintf "protected goodput %.0f >= unprotected %.0f at 1.5x" prot
       unprot)
    true (prot >= unprot)

let () =
  Alcotest.run "lion_overload"
    [
      ( "open-loop",
        [
          Alcotest.test_case "deterministic" `Quick test_open_loop_deterministic;
          Alcotest.test_case "offered tracks rate" `Quick
            test_open_loop_offered_tracks_rate;
          Alcotest.test_case "uniform arrivals" `Quick
            test_uniform_arrivals_deterministic_gap;
        ] );
      ( "graceful-degradation",
        [
          Alcotest.test_case "metastable shape" `Slow test_metastable_shape;
          Alcotest.test_case "budgets win past saturation" `Slow
            test_budget_wins_past_saturation;
        ] );
    ]
