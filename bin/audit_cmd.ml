(* Jepsen-style consistency audit driver: run workload x protocol x
   nemesis, record the transaction history, and check it offline for
   serializability anomalies and replica divergence at quiescence.

     lion audit --proto lion --nemesis partition
     lion audit --proto all --nemesis all --seed 7

   Exits non-zero if any combination produces an anomaly or a diverged
   replica, so it slots directly into CI. *)

open Cmdliner
module Config = Lion_store.Config
module Workloads = Lion_harness.Workloads
module Nemesis = Lion_audit.Nemesis
module Drive = Lion_audit.Drive
module Checker = Lion_audit.Checker
module Divergence = Lion_audit.Divergence

module Protocols = Lion_harness.Protocols

let nemeses ~nodes ~seed :
    (string * Nemesis.t) list =
  [
    ("calm", Nemesis.calm);
    ("crash", Nemesis.crash ~node:1 ~downtime:1_000_000.0 ());
    ( "partition",
      Nemesis.partition_primary_from_majority ~node:0 ~duration:800_000.0
        ~nodes () );
    ("straggler", Nemesis.straggler_on_coordinator ~node:0 ~duration:1_500_000.0 ());
    ("lossy", Nemesis.lossy ~prob:0.2 ~duration:1_000_000.0 ());
    ("crash-remaster", Nemesis.crash_during_remaster ~node:1 ~downtime:500_000.0 ());
    ( "rolling",
      Nemesis.rename "rolling"
        (Nemesis.stagger ~gap:700_000.0
           [
             Nemesis.crash ~node:1 ~downtime:500_000.0 ();
             Nemesis.crash ~node:2 ~downtime:500_000.0 ();
           ]) );
    ("adversarial", Nemesis.adversarial ~seed ~nodes ~events:5 ~window:2_500_000.0 ());
    ("overload", Nemesis.overload_burst ~node:0 ~duration:1_500_000.0 ());
  ]

(* Selectable by name but excluded from "all": with the default config
   (session tagging off) this nemesis is *supposed* to produce the
   stale-replica divergence — that is its point. Run it with
   --rejoin-safe, or let --assert-rejoin-safe check both sides. *)
let crash_rejoin_nemesis = ("crash-rejoin", Nemesis.crash_rejoin ())

(* The membership-safety gate (docs/MEMBERSHIP.md): the crash-rejoin
   nemesis must corrupt an untagged cluster — proving the scenario has
   teeth — and a tagged one must reject the stale streams and audit
   clean across the representative protocols. *)
let assert_rejoin_safe ~seed ~seconds ~clients ~cross ~skew () =
  let nem = snd crash_rejoin_nemesis in
  let run ~tagging make =
    let cfg = { Config.default with Config.session_tagging = tagging } in
    Drive.run ~seed ~clients ~duration:seconds ~cfg ~make
      ~gen:(Workloads.ycsb ~seed ~skew ~cross cfg)
      ~nemesis:nem ()
  in
  let find id = (Protocols.get id).make in
  let off = run ~tagging:false (find "lion") in
  let stale_found =
    List.exists
      (function Divergence.Stale_replica _ -> true | _ -> false)
      off.Drive.divergence.Divergence.findings
  in
  Printf.printf "tagging off  lion: %d divergence finding(s)%s\n"
    (List.length off.Drive.divergence.Divergence.findings)
    (if stale_found then ", stale replica reproduced"
     else " — expected a stale replica, found none");
  let on_ok =
    List.for_all
      (fun name ->
        let o = run ~tagging:true (find name) in
        let ok = Drive.passed o in
        Printf.printf "tagging on   %-5s: %s (%d stale acks rejected)\n" name
          (if ok then "clean" else "DIVERGED")
          (Lion_harness.Runner.count o.Drive.result Stale_acks);
        ok)
      [ "lion"; "star"; "2pc" ]
  in
  if stale_found && on_ok then (
    Printf.printf "rejoin-safety gate OK\n";
    0)
  else (
    Printf.printf "rejoin-safety gate FAILED\n";
    1)

let run proto nemesis seed seconds clients cross skew overload rejoin_safe assert_rejoin
    liveness_gate verbose =
  if assert_rejoin then assert_rejoin_safe ~seed ~seconds ~clients ~cross ~skew ()
  else
    let nodes = Config.default.Config.nodes in
    let protos = if proto = "all" then Protocols.all else [ Protocols.get proto ] in
    let cfg =
      if overload then Config.with_overload_defaults Config.default
      else Config.default
    in
    let cfg = { cfg with Config.session_tagging = rejoin_safe } in
    (* crash-rejoin resolves by name only: "all" must stay green on the
       default config, and this nemesis exists to diverge it. *)
    let nems =
      if nemesis = fst crash_rejoin_nemesis then [ crash_rejoin_nemesis ]
      else
        let all = nemeses ~nodes ~seed in
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
            (* An exhausted event budget always fails: the drain never
               reached quiescence, so the safety verdict above was taken
               on a truncated history. The liveness audit as a whole is
               opt-in ([--liveness]) because some nemeses wedge clusters
               by design. *)
            let ok =
              (if liveness_gate then Drive.healthy o else Drive.passed o)
              && not o.Drive.exhausted
            in
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
    let names =
      ("all" :: List.map fst (nemeses ~nodes:Config.default.Config.nodes ~seed:1))
      @ [ fst crash_rejoin_nemesis ]
    in
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) "crash"
    & info [ "nemesis" ] ~docv:"NAME"
        ~doc:
          ("Fault schedule: " ^ doc_alts names
         ^ ". crash-rejoin is not in all: it diverges an untagged cluster by design (see \
            --rejoin-safe).")
  in
  let clients = value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent clients." in
  let overload =
    value & flag
    & info [ "overload" ]
        ~doc:
          "Run with every overload-protection knob on (bounded queues, shedding, retry \
           budgets, breakers, deadlines)."
  in
  let rejoin_safe =
    value & flag & info [ "rejoin-safe" ] ~doc:"Turn on replication session tagging."
  in
  let assert_rejoin =
    value & flag
    & info [ "assert-rejoin-safe" ]
        ~doc:
          "Check the crash-rejoin nemesis both ways: divergence without tagging, clean with \
           it (lion, star, 2pc)."
  in
  let liveness =
    value & flag
    & info [ "liveness" ]
        ~doc:
          "Also fail a combination whose liveness audit finds wedges (stuck txns, pinned \
           breakers, parked partitions, ...). An exhausted event budget always fails: the \
           audit was truncated."
  in
  let verbose = value & flag & info [ "v"; "verbose" ] ~doc:"Print every outcome in full." in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Check protocol x nemesis runs for serializability anomalies and replica divergence")
    Term.(
      const run
      $ Terms.proto ~also:[ "all" ] ()
      $ nemesis $ Terms.seed () $ Terms.seconds 4.0 $ clients $ Terms.cross 0.4
      $ Terms.skew 0.6 $ overload $ rejoin_safe $ assert_rejoin $ liveness $ verbose)
