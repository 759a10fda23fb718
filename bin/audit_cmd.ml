(* Jepsen-style consistency audit driver: run workload x protocol x
   nemesis, record the transaction history, and check it offline for
   serializability anomalies and replica divergence at quiescence, and
   check that the run reached quiescence (the liveness audit).

     lion audit --proto lion --nemesis partition
     lion audit --proto all --nemesis all --seed 7

   Exits non-zero if any combination produces an anomaly, a diverged
   replica or a liveness finding, so it slots directly into CI. *)

open Cmdliner
module Config = Lion_store.Config
module Workloads = Lion_harness.Workloads
module Fault = Lion_sim.Fault
module Nemesis = Lion_audit.Nemesis
module Drive = Lion_audit.Drive
module Checker = Lion_audit.Checker
module Divergence = Lion_audit.Divergence

module Protocols = Lion_harness.Protocols

(* Each entry builds its plan from [Fault] recipes once [Drive.run]
   supplies the start time. *)
let nemeses ~nodes ~seed : (string * Nemesis.t) list =
  [
    ("calm", Nemesis.calm);
    ("crash", Fault.crash_recover ~node:1 ~downtime:1_000_000.0);
    (* Cut a primary-heavy node away from the majority: its partitions
       must fail over while every log ship across the cut dies. *)
    ("partition", Fault.isolate ~node:0 ~nodes ~duration:800_000.0);
    (* Slow the busiest coordinator without killing it: transactions
       keep routing there, timeouts and retries pile up. *)
    ( "straggler",
      fun ~at -> Fault.slow_node ~node:0 ~factor:16.0 ~from_:at ~until:(at +. 1_500_000.0) );
    ("lossy", fun ~at -> Fault.lossy ~prob:0.2 ~from_:at ~until:(at +. 1_000_000.0) ());
    ( "rolling",
      fun ~at ->
        Fault.crash_recover ~node:1 ~at ~downtime:500_000.0
        @ Fault.crash_recover ~node:2 ~at:(at +. 700_000.0) ~downtime:500_000.0 );
    ("adversarial", Fault.adversarial ~seed ~nodes ~events:5 ~window:2_500_000.0);
    ("overload", Fault.overload_burst ~node:0 ~duration:1_500_000.0);
    (* Land delayed log-ship acks and in-flight replica installs after
       their target crashed and rejoined: the cluster must refuse them
       as stale sessions (docs/MEMBERSHIP.md). *)
    ("crash-rejoin", Fault.crash_rejoin ~node:1 ~cycles:2);
  ]

let run proto nemesis seed seconds clients cross skew overload verbose =
  let protos = if proto = "all" then Protocols.all else [ Protocols.get proto ] in
  let cfg =
    if overload then Config.with_overload_defaults Config.default
    else Config.default
  in
  let nems =
    let all = nemeses ~nodes:Config.default.Config.nodes ~seed in
    if nemesis = "all" then all else [ (nemesis, List.assoc nemesis all) ]
  in
  let failures = ref 0 in
  Printf.printf "%-10s  %-16s  %7s  %6s  %9s  %7s  %6s  %6s  %s\n" "protocol"
    "nemesis" "commits" "aborts" "anomalies" "behind" "wedged" "avail" "verdict";
  List.iter
    (fun (p : Protocols.entry) ->
      List.iter
        (fun (nname, nem) ->
          let o =
            Drive.run ~seed ~clients ~duration:seconds ~cfg
              ~make:p.make
              ~gen:(Workloads.ycsb ~seed ~skew ~cross cfg)
              ~nemesis:nem ()
          in
          (* Safety and liveness: an exhausted event budget is a
             liveness finding, so a truncated history fails too. *)
          let ok = Drive.healthy o in
          if not ok then incr failures;
          Printf.printf "%-10s  %-16s  %7d  %6d  %9d  %7d  %6d  %6.3f  %s\n"
            p.id nname o.Drive.result.commits o.Drive.result.aborts
            (List.length o.Drive.check.Checker.anomalies)
            (List.length o.Drive.divergence.Divergence.findings)
            (List.length o.Drive.liveness.Lion_audit.Liveness.findings)
            o.Drive.min_availability
            (if ok then "PASS" else "FAIL");
          if verbose || not ok then
            Format.printf "%a@." Drive.pp_outcome o)
        nems)
    protos;
  if !failures > 0 then (
    Printf.printf "%d combination(s) FAILED\n" !failures;
    1)
  else (
    Printf.printf "all combinations passed\n";
    0)

let cmd =
  let open Arg in
  let nemesis =
    let names = "all" :: List.map fst (nemeses ~nodes:Config.default.Config.nodes ~seed:1) in
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) "crash"
    & info [ "nemesis" ] ~docv:"NAME" ~doc:("Fault schedule: " ^ doc_alts names ^ ".")
  in
  let clients = value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent clients." in
  let overload =
    value & flag
    & info [ "overload" ]
        ~doc:
          "Run with every overload-protection knob on (bounded queues, shedding, retry \
           budgets, breakers, deadlines)."
  in
  let verbose = value & flag & info [ "v"; "verbose" ] ~doc:"Print every outcome in full." in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Check protocol x nemesis runs for serializability anomalies and replica divergence")
    Term.(
      const run
      $ Terms.proto ~also:[ "all" ] ()
      $ nemesis $ Terms.seed () $ Terms.seconds 4.0 $ clients $ Terms.cross 0.4
      $ Terms.skew 0.6 $ overload $ verbose)
