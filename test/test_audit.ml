(* Consistency-auditor tests: the offline serializability checker
   against hand-built histories with known anomalies, the
   replica-divergence audit against manufactured divergence and a real
   crash-sweep recovery, and the nemesis/drive properties — a seeded
   nemesis replays bit-for-bit, history recording never perturbs a
   run, and every built-in protocol audits clean under faults. *)

module Config = Lion_store.Config
module Cluster = Lion_store.Cluster
module Kvstore = Lion_store.Kvstore
module History = Lion_store.History
module Replication = Lion_store.Replication
module Engine = Lion_sim.Engine
module Fault = Lion_sim.Fault
module Checker = Lion_audit.Checker
module Divergence = Lion_audit.Divergence
module Drive = Lion_audit.Drive
module Runner = Lion_harness.Runner
module Workloads = Lion_harness.Workloads

let k slot = Kvstore.key ~part:0 ~slot
let kb slot = Kvstore.key ~part:1 ~slot

let ev = History.event

(* --- checker: hand-built histories --- *)

let test_clean_serial () =
  (* T1 installs k0@1; T2 reads it and installs k0@2 (an RMW).
     Dependencies flow one way: serializable. *)
  let h =
    [
      ev ~txn_id:1 ~writes:[ (k 0, 1) ] ~outcome:History.Committed ~seq:0 ();
      ev ~txn_id:2 ~reads:[ (k 0, 1) ] ~writes:[ (k 0, 2) ]
        ~outcome:History.Committed ~seq:1 ();
    ]
  in
  let r = Checker.check h in
  Alcotest.(check bool) "serializable" true (Checker.serializable r);
  Alcotest.(check int) "committed" 2 r.Checker.committed;
  (* ww (v1 -> v2) and wr (T1 -> T2); the rw edge is suppressed because
     the reader installed the next version itself. *)
  Alcotest.(check int) "edges" 2 r.Checker.edges

let test_lost_update () =
  (* Classic lost update: both transactions read k0@0, both overwrote
     it. ww T1 -> T2 (v1 -> v2) plus rw T2 -> T1 (T2 read v0, T1
     installed v1): a two-cycle on one key. *)
  let h =
    [
      ev ~txn_id:1 ~reads:[ (k 0, 0) ] ~writes:[ (k 0, 1) ]
        ~outcome:History.Committed ~seq:0 ();
      ev ~txn_id:2 ~reads:[ (k 0, 0) ] ~writes:[ (k 0, 2) ]
        ~outcome:History.Committed ~seq:1 ();
    ]
  in
  let r = Checker.check h in
  match r.Checker.anomalies with
  | [ Checker.Lost_update edges ] ->
      Alcotest.(check int) "two-cycle witness" 2 (List.length edges);
      List.iter
        (fun (e : Checker.edge) ->
          Alcotest.(check int) "pivots on k0" 0 (Kvstore.key_compare e.Checker.key (k 0)))
        edges
  | other ->
      Alcotest.failf "expected exactly one lost-update, got [%s]"
        (String.concat "; " (List.map Checker.anomaly_name other))

let test_g0_write_cycle () =
  (* Write-only cycle across two keys: T1 installed a@1 then b@2, T2
     installed b@1 then a@2 — the installation orders disagree. *)
  let h =
    [
      ev ~txn_id:1 ~writes:[ (k 0, 1); (kb 0, 2) ] ~outcome:History.Committed
        ~seq:0 ();
      ev ~txn_id:2 ~writes:[ (kb 0, 1); (k 0, 2) ] ~outcome:History.Committed
        ~seq:1 ();
    ]
  in
  let r = Checker.check h in
  match r.Checker.anomalies with
  | [ Checker.G0 edges ] ->
      Alcotest.(check int) "two-cycle witness" 2 (List.length edges);
      List.iter
        (fun (e : Checker.edge) ->
          Alcotest.(check string) "ww only" "ww" (Checker.kind_name e.Checker.kind))
        edges
  | other ->
      Alcotest.failf "expected exactly one G0, got [%s]"
        (String.concat "; " (List.map Checker.anomaly_name other))

let test_g1a_aborted_read () =
  (* T1's write was rolled back, yet committed T2 observed it. *)
  let h =
    [
      ev ~txn_id:1 ~writes:[ (k 0, 1) ] ~outcome:History.Aborted ~seq:0 ();
      ev ~txn_id:2 ~reads:[ (k 0, 1) ] ~outcome:History.Committed ~seq:1 ();
    ]
  in
  let r = Checker.check h in
  match r.Checker.anomalies with
  | [ Checker.G1a { reader; writer; version; _ } ] ->
      Alcotest.(check int) "reader" 2 reader;
      Alcotest.(check int) "writer" 1 writer;
      Alcotest.(check int) "version" 1 version
  | other ->
      Alcotest.failf "expected exactly one G1a, got [%s]"
        (String.concat "; " (List.map Checker.anomaly_name other))

let test_g1c_circular_flow () =
  (* Circular information flow, no anti-dependency: each transaction
     read the version the other installed. *)
  let h =
    [
      ev ~txn_id:1 ~reads:[ (kb 0, 1) ] ~writes:[ (k 0, 1) ]
        ~outcome:History.Committed ~seq:0 ();
      ev ~txn_id:2 ~reads:[ (k 0, 1) ] ~writes:[ (kb 0, 1) ]
        ~outcome:History.Committed ~seq:1 ();
    ]
  in
  let r = Checker.check h in
  match r.Checker.anomalies with
  | [ Checker.G1c edges ] ->
      Alcotest.(check int) "two-cycle witness" 2 (List.length edges);
      List.iter
        (fun (e : Checker.edge) ->
          Alcotest.(check string) "wr only" "wr" (Checker.kind_name e.Checker.kind))
        edges
  | other ->
      Alcotest.failf "expected exactly one G1c, got [%s]"
        (String.concat "; " (List.map Checker.anomaly_name other))

let test_g2_write_skew () =
  (* Textbook write skew: T1 reads b@0 writes a@1, T2 reads a@0 writes
     b@1. Two rw anti-dependencies form the cycle; no ww or wr. *)
  let h =
    [
      ev ~txn_id:1 ~reads:[ (kb 0, 0) ] ~writes:[ (k 0, 1) ]
        ~outcome:History.Committed ~seq:0 ();
      ev ~txn_id:2 ~reads:[ (k 0, 0) ] ~writes:[ (kb 0, 1) ]
        ~outcome:History.Committed ~seq:1 ();
    ]
  in
  let r = Checker.check h in
  match r.Checker.anomalies with
  | [ Checker.G2 edges ] ->
      List.iter
        (fun (e : Checker.edge) ->
          Alcotest.(check string) "rw only" "rw" (Checker.kind_name e.Checker.kind))
        edges
  | other ->
      Alcotest.failf "expected exactly one G2, got [%s]"
        (String.concat "; " (List.map Checker.anomaly_name other))

let test_divergent_install () =
  (* Split-brain double execution: two committed transactions both
     claim to have installed k0@1. *)
  let h =
    [
      ev ~txn_id:1 ~writes:[ (k 0, 1) ] ~outcome:History.Committed ~seq:0 ();
      ev ~txn_id:2 ~writes:[ (k 0, 1) ] ~outcome:History.Committed ~seq:1 ();
    ]
  in
  let r = Checker.check h in
  Alcotest.(check bool) "not serializable" false (Checker.serializable r);
  match
    List.find_opt
      (function Checker.Divergent_install _ -> true | _ -> false)
      r.Checker.anomalies
  with
  | Some (Checker.Divergent_install { writers; version; _ }) ->
      Alcotest.(check (list int)) "both writers named" [ 1; 2 ] writers;
      Alcotest.(check int) "version" 1 version
  | _ -> Alcotest.fail "expected a divergent-install anomaly"

let test_indeterminate_not_in_graph () =
  (* An indeterminate attempt (2PC coordinator lost contact) must not
     create dependencies — its fate is unknown, so the checker can
     neither trust its writes nor flag its reads. *)
  let h =
    [
      ev ~txn_id:1 ~writes:[ (k 0, 1) ] ~outcome:History.Indeterminate ~seq:0 ();
      ev ~txn_id:2 ~reads:[ (k 0, 1) ] ~outcome:History.Committed ~seq:1 ();
    ]
  in
  let r = Checker.check h in
  Alcotest.(check bool) "serializable" true (Checker.serializable r);
  Alcotest.(check int) "only the committed txn counted" 1 r.Checker.committed

let test_checker_deterministic () =
  let h =
    [
      ev ~txn_id:1 ~reads:[ (k 0, 0) ] ~writes:[ (k 0, 1) ]
        ~outcome:History.Committed ~seq:0 ();
      ev ~txn_id:2 ~reads:[ (k 0, 0) ] ~writes:[ (k 0, 2) ]
        ~outcome:History.Committed ~seq:1 ();
      ev ~txn_id:3 ~writes:[ (kb 0, 1) ] ~outcome:History.Aborted ~seq:2 ();
    ]
  in
  let a = Format.asprintf "%a" Checker.pp_report (Checker.check h) in
  let b = Format.asprintf "%a" Checker.pp_report (Checker.check h) in
  Alcotest.(check string) "same report byte-for-byte" a b

(* --- divergence audit --- *)

let test_divergence_flags_behind_replica () =
  let cl = Cluster.create ~seed:3 Config.default in
  (* Three records land in partition 0's log; only the primary applies
     them. The secondary (node 1 in the default layout) is behind. *)
  for _ = 1 to 3 do
    Replication.append cl.Cluster.replication ~part:0
  done;
  Cluster.note_replica_synced cl ~part:0 ~node:0;
  let r = Divergence.audit cl in
  Alcotest.(check bool) "not clean" false (Divergence.clean r);
  match
    List.find_opt
      (function Divergence.Replica_behind _ -> true | _ -> false)
      r.Divergence.findings
  with
  | Some (Divergence.Replica_behind { part; node; applied; log_len }) ->
      Alcotest.(check int) "partition" 0 part;
      Alcotest.(check int) "lagging node" 1 node;
      Alcotest.(check int) "applied" 0 applied;
      Alcotest.(check int) "log length" 3 log_len
  | _ -> Alcotest.fail "expected a replica-behind finding"

let test_divergence_flags_lost_write () =
  let cl = Cluster.create ~seed:3 Config.default in
  let h = History.create () in
  (* The history says k0 reached version 5, but neither the real store
     nor the shadow ever saw it: a lost write. *)
  History.record h ~txn_id:1 ~attempt:1 ~reads:[] ~writes:[ (k 0, 5) ]
    ~outcome:History.Committed ~ts:0.0;
  let r = Divergence.audit ~history:h cl in
  match
    List.find_opt
      (function Divergence.Lost_write _ -> true | _ -> false)
      r.Divergence.findings
  with
  | Some (Divergence.Lost_write { history_version; store_version; _ }) ->
      Alcotest.(check int) "claimed" 5 history_version;
      Alcotest.(check int) "actual" 0 store_version
  | _ -> Alcotest.fail "expected a lost-write finding"

let test_divergence_clean_after_crash_sweep () =
  (* A real run: Lion under a crash/recover sweep, drained to
     quiescence. Failover elections, the recovery resync and
     anti-entropy must leave every live replica at the log head. *)
  let o =
    Drive.run ~seed:11 ~clients:4 ~duration:1.5 ~nemesis_at:0.3
      ~cfg:Config.default
      ~make:(Lion_core.Standard.create ~name:"Lion")
      ~gen:(Workloads.ycsb ~cross:0.4 ~skew:0.6 Config.default)
      ~nemesis:(Fault.crash_recover ~node:1 ~downtime:400_000.0)
      ()
  in
  Alcotest.(check bool) "some work committed" true (o.Drive.result.commits > 0);
  Alcotest.(check bool) "divergence clean" true (Divergence.clean o.Drive.divergence);
  Alcotest.(check bool) "serializable" true (Checker.serializable o.Drive.check)

(* --- crash-rejoin: the stale-session divergence and its fix --- *)

(* The same seeded run under the crash-rejoin nemesis, which lands
   delayed log-ship acks and in-flight replica installs after their
   target has crashed and rejoined (docs/MEMBERSHIP.md). The cluster
   rejects the stale streams (counted) and the audit must be healthy;
   with the [reintroduce_stale_sessions] hook set they are accepted and
   the divergence audit must catch the corruption. *)
let rejoin_drive ~hook =
  let cfg = Config.default in
  Drive.run ~seed:1 ~clients:8 ~duration:4.0 ~nemesis_at:1.0 ~cfg
    ~make:(fun cl ->
      cl.Cluster.reintroduce_stale_sessions <- hook;
      Lion_core.Standard.create ~name:"Lion" cl)
    ~gen:(Workloads.ycsb ~seed:1 ~cross:0.4 ~skew:0.6 cfg)
    ~nemesis:(Fault.crash_rejoin ~node:1 ~cycles:2)
    ()

let test_crash_rejoin_diverges_untagged () =
  let o = rejoin_drive ~hook:true in
  Alcotest.(check bool) "some work committed" true (o.Drive.result.commits > 0);
  Alcotest.(check bool) "stale replica reproduced" true
    (List.exists
       (function Divergence.Stale_replica _ -> true | _ -> false)
       o.Drive.divergence.Divergence.findings);
  Alcotest.(check int) "nothing rejected under the hook" 0
    (Runner.count o.Drive.result Stale_acks);
  Alcotest.(check bool) "not healthy" false (Drive.healthy o)

let test_crash_rejoin_clean_tagged () =
  let o = rejoin_drive ~hook:false in
  Alcotest.(check bool) "some work committed" true (o.Drive.result.commits > 0);
  Alcotest.(check bool) "audit healthy" true (Drive.healthy o);
  Alcotest.(check bool) "stale streams rejected" true (Runner.count o.Drive.result Stale_acks > 0)

(* --- nemesis / drive properties --- *)

let prop_nemesis_plan_deterministic =
  QCheck.Test.make ~name:"seeded nemesis materialises the same plan every time"
    ~count:50
    QCheck.(pair (int_range 0 10_000) (float_range 0.0 5_000_000.0))
    (fun (seed, at) ->
      let n = Fault.adversarial ~seed ~nodes:4 ~events:6 ~window:3_000_000.0 in
      n ~at = n ~at)

let prop_recording_off_bit_identical =
  (* History recording must be purely observational: the same seeded
     chaos run with and without a sink lands on identical counters at
     the identical simulated instant. *)
  QCheck.Test.make ~name:"history recording does not perturb the run" ~count:4
    QCheck.(int_range 1 1_000)
    (fun seed ->
      let cfg =
        {
          Config.default with
          Config.fault_plan =
            Fault.adversarial ~seed ~nodes:4 ~events:3 ~window:800_000.0
              ~at:(Engine.seconds 0.3);
        }
      in
      let run history =
        let r =
          Runner.run ~seed ?history ~cfg
            ~make:(Lion_core.Standard.create ~name:"Lion")
            ~gen:(Workloads.ycsb ~cross:0.4 cfg)
            { Runner.quick with Runner.warmup = 0.2; duration = 0.8 }
        in
        (r.Runner.commits, r.Runner.aborts, r.Runner.timeouts, r.Runner.retries,
         Runner.count r Drops, r.Runner.p95)
      in
      run None = run (Some (History.create ())))

module Protocols = Lion_harness.Protocols

let prop_every_protocol_audits_clean =
  (* Every registry protocol, audited under a crash nemesis: zero
     serializability anomalies, zero diverged replicas, a clean liveness
     audit, some commits.
     The single case walks the whole registry, seed varied with the
     index, so no protocol is left to chance. *)
  QCheck.Test.make ~name:"every built-in protocol audits clean under a crash" ~count:1
    QCheck.unit
    (fun () ->
      List.iteri
        (fun i (p : Protocols.entry) ->
          let o =
            Drive.run ~seed:(41 + i) ~clients:4 ~duration:1.0 ~nemesis_at:0.3
              ~cfg:Config.default ~make:p.make
              ~gen:(Workloads.ycsb ~cross:0.4 Config.default)
              ~nemesis:(Fault.crash_recover ~node:1 ~downtime:300_000.0)
              ()
          in
          if not (Drive.healthy o && o.Drive.result.commits > 0) then
            QCheck.Test.fail_reportf "%s failed the audit:@ %a" p.id Drive.pp_outcome o)
        Protocols.all;
      true)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "lion_audit"
    [
      ( "checker",
        [
          Alcotest.test_case "clean serial history" `Quick test_clean_serial;
          Alcotest.test_case "lost update" `Quick test_lost_update;
          Alcotest.test_case "G0 write cycle" `Quick test_g0_write_cycle;
          Alcotest.test_case "G1a aborted read" `Quick test_g1a_aborted_read;
          Alcotest.test_case "G1c circular flow" `Quick test_g1c_circular_flow;
          Alcotest.test_case "G2 write skew" `Quick test_g2_write_skew;
          Alcotest.test_case "divergent install" `Quick test_divergent_install;
          Alcotest.test_case "indeterminate excluded" `Quick
            test_indeterminate_not_in_graph;
          Alcotest.test_case "deterministic report" `Quick test_checker_deterministic;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "flags behind replica" `Quick
            test_divergence_flags_behind_replica;
          Alcotest.test_case "flags lost write" `Quick test_divergence_flags_lost_write;
          Alcotest.test_case "clean after crash sweep" `Quick
            test_divergence_clean_after_crash_sweep;
        ] );
      ( "crash-rejoin",
        [
          Alcotest.test_case "diverges untagged" `Quick
            test_crash_rejoin_diverges_untagged;
          Alcotest.test_case "clean tagged" `Quick test_crash_rejoin_clean_tagged;
        ] );
      qsuite "nemesis-props"
        [ prop_nemesis_plan_deterministic; prop_recording_off_bit_identical ];
      qsuite "audit-props" [ prop_every_protocol_audits_clean ];
    ]
