(* Tests for the protocol layer: shared execution machinery, 2PC
   semantics, batch engine, conflict analysis, and each baseline's
   characteristic behaviour on a small simulated cluster. *)

module Config = Lion_store.Config
module Cluster = Lion_store.Cluster
module Placement = Lion_store.Placement
module Kvstore = Lion_store.Kvstore
module Engine = Lion_sim.Engine
module Metrics = Lion_sim.Metrics
module Txn = Lion_workload.Txn
module Proto = Lion_protocols.Proto
module Exec = Lion_protocols.Exec
module Batch = Lion_protocols.Batch

let small_cfg =
  {
    Config.default with
    Config.nodes = 2;
    partitions_per_node = 2;
    workers_per_node = 2;
    batch_size = 16;
  }

let mk_cluster ?(cfg = small_cfg) () = Cluster.create ~seed:3 cfg

let key part slot = Kvstore.key ~part ~slot
let txn ?(id = 0) ops = Txn.make ~id (Array.of_list ops)

(* Conflict granules: the key itself, or Lotus-style runs of [size]
   slots of one partition. *)
let fine (k : Kvstore.key) = (k :> int)
let coarse size k = fine (Kvstore.key ~part:(Kvstore.part k) ~slot:(Kvstore.slot k / size))

(* --- exec: grouping and routing --- *)

let test_groups_preserve_order () =
  let t =
    txn [ Txn.read (key 1 0); Txn.write (key 0 0); Txn.read (key 1 1) ]
  in
  let groups = Exec.groups_of t in
  Alcotest.(check (list int)) "first-appearance order" [ 1; 0 ] (List.map fst groups);
  Alcotest.(check int) "ops regrouped" 2 (List.length (List.assoc 1 groups))

(* The grouping [Exec.groups_of] replaced: a per-attempt table, kept
   here verbatim as the reference the table-free scan must reproduce. *)
let hashtbl_groups_of (txn : Txn.t) =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun op ->
      let part = Kvstore.part (Txn.key_of op) in
      (match Hashtbl.find_opt tbl part with
      | Some ops -> Hashtbl.replace tbl part (op :: ops)
      | None ->
          Hashtbl.replace tbl part [ op ];
          order := part :: !order))
    txn.Txn.ops;
  List.rev_map (fun part -> (part, List.rev (Hashtbl.find tbl part))) !order

let prop_groups_match_hashtbl_reference =
  QCheck.Test.make ~name:"groups_of equals the Hashtbl grouping" ~count:500
    QCheck.(
      pair (int_range 1 6)
        (list_of_size (Gen.int_range 1 40)
           (triple (int_range 0 1000) (int_range 0 20) bool)))
    (fun (parts, ops) ->
      let t =
        txn
          (List.map
             (fun (p, slot, w) ->
               let k = key (p mod parts) slot in
               if w then Txn.write k else Txn.read k)
             ops)
      in
      Exec.groups_of t = hashtbl_groups_of t)

let test_route_most_primaries () =
  let cl = mk_cluster () in
  (* Partitions 0 and 2 both have primaries on node 0. *)
  let t = txn [ Txn.read (key 0 0); Txn.read (key 2 0) ] in
  Alcotest.(check int) "routes to node 0" 0 (Exec.route_most_primaries cl t)

(* --- exec: single-node and distributed commits --- *)

let run_txn ?(flavor = Exec.plain_2pc) cl t =
  let committed = ref false in
  Exec.run cl ~route:(Exec.route_most_primaries cl) ~flavor t ~on_done:(fun () ->
      committed := true);
  Engine.run_until cl.Cluster.engine (Engine.seconds 2.0);
  !committed

let test_single_node_commit_skips_prepare () =
  let cl = mk_cluster () in
  let t = txn [ Txn.write (key 0 1); Txn.read (key 0 2) ] in
  Alcotest.(check bool) "committed" true (run_txn cl t);
  Alcotest.(check int) "recorded" 1 (Metrics.count cl.Cluster.metrics Commits);
  Alcotest.(check int) "single node" 1 (Metrics.count cl.Cluster.metrics Single_node_commits);
  (* Single-node commit writes installed. *)
  Alcotest.(check int) "version bumped" 1 (Kvstore.version cl.Cluster.store (key 0 1))

let test_distributed_commit_runs_2pc () =
  let cl = mk_cluster () in
  (* Partition 0 on node 0, partition 1 on node 1. *)
  let t = txn [ Txn.write (key 0 1); Txn.write (key 1 1) ] in
  Alcotest.(check bool) "committed" true (run_txn cl t);
  Alcotest.(check int) "not single node" 0 (Metrics.count cl.Cluster.metrics Single_node_commits);
  Alcotest.(check int) "both writes installed" 1 (Kvstore.version cl.Cluster.store (key 1 1))

let test_conflicting_txns_serialize () =
  let cl = mk_cluster () in
  let mk i = txn ~id:i [ Txn.write (key 0 7) ] in
  let done_count = ref 0 in
  for i = 0 to 4 do
    Exec.run cl ~route:(Exec.route_most_primaries cl) ~flavor:Exec.plain_2pc (mk i)
      ~on_done:(fun () -> incr done_count)
  done;
  Engine.run_until cl.Cluster.engine (Engine.seconds 5.0);
  Alcotest.(check int) "all eventually commit" 5 !done_count;
  Alcotest.(check int) "five installs" 5 (Kvstore.version cl.Cluster.store (key 0 7))

let test_lion_flavor_remasters_secondary () =
  let cl = mk_cluster () in
  (* Node 0 holds the secondary of partition 1 (primary node 1). A
     transaction on partitions 0 and 1 routed to node 0 can convert. *)
  let t = txn [ Txn.write (key 0 1); Txn.write (key 1 1) ] in
  let committed = ref false in
  Exec.run cl ~route:(fun _ -> 0) ~flavor:Exec.lion_flavor t ~on_done:(fun () ->
      committed := true);
  Engine.run_until cl.Cluster.engine (Engine.seconds 2.0);
  Alcotest.(check bool) "committed" true !committed;
  Alcotest.(check int) "became single-node" 1 (Metrics.count cl.Cluster.metrics Single_node_commits);
  Alcotest.(check int) "remastered" 1 (Metrics.count cl.Cluster.metrics Remastered_commits);
  Alcotest.(check int) "primary moved" 0 (Placement.primary cl.Cluster.placement 1)

let test_leap_flavor_migrates_everything () =
  let cl = mk_cluster () in
  let t = txn [ Txn.write (key 0 1); Txn.write (key 1 1) ] in
  let committed = ref false in
  Exec.run cl ~route:(fun _ -> 0) ~flavor:Exec.leap_flavor t ~on_done:(fun () ->
      committed := true);
  Engine.run_until cl.Cluster.engine (Engine.seconds 2.0);
  Alcotest.(check bool) "committed" true !committed;
  Alcotest.(check int) "single node after pull" 1
    (Metrics.count cl.Cluster.metrics Single_node_commits);
  Alcotest.(check int) "mastership pulled" 0 (Placement.primary cl.Cluster.placement 1)

let test_abort_retry_records_aborts () =
  let cl = mk_cluster () in
  (* Force a version conflict: pre-commit a write that invalidates the
     in-flight read between its execution and validation. Easiest
     deterministic route: two overlapping writers as above — at least
     one validation round must have conflicted when both target the
     same hot key through the remote path. Here we assert the abort
     counter is consistent (>= 0) and commits complete. *)
  let mk i = txn ~id:i [ Txn.write (key 1 3); Txn.write (key 0 3) ] in
  let done_count = ref 0 in
  for i = 0 to 3 do
    Exec.run cl ~route:(fun _ -> i mod 2) ~flavor:Exec.plain_2pc (mk i)
      ~on_done:(fun () -> incr done_count)
  done;
  Engine.run_until cl.Cluster.engine (Engine.seconds 5.0);
  Alcotest.(check int) "all commit eventually" 4 !done_count;
  Alcotest.(check int) "writes serialized" 4 (Kvstore.version cl.Cluster.store (key 0 3))

(* --- batch engine --- *)

let all_commit_process txns =
  {
    Batch.verdicts =
      Array.map
        (fun _ -> { Batch.committed = true; single_node = true; remastered = false })
        txns;
    node_busy = [| 100.0; 100.0 |];
    serial_time = 0.0;
    barrier_time = 0.0;
  }

let test_batch_epoch_commits_all () =
  let cl = mk_cluster () in
  let proto = Batch.create cl ~name:"test" ~process:all_commit_process () in
  let done_count = ref 0 in
  for i = 0 to 9 do
    proto.Proto.submit (txn ~id:i [ Txn.read (key 0 i) ]) ~on_done:(fun () ->
        incr done_count)
  done;
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  Alcotest.(check int) "all done" 10 !done_count;
  Alcotest.(check int) "commits recorded" 10 (Metrics.count cl.Cluster.metrics Commits)

let test_batch_aborted_retry_next_epoch () =
  let cl = mk_cluster () in
  let first_epoch = ref true in
  let process txns =
    let committed = not !first_epoch in
    first_epoch := false;
    {
      Batch.verdicts =
        Array.map
          (fun _ -> { Batch.committed; single_node = true; remastered = false })
          txns;
      node_busy = [| 10.0; 10.0 |];
      serial_time = 0.0;
      barrier_time = 0.0;
    }
  in
  let proto = Batch.create cl ~name:"test" ~process () in
  let done_count = ref 0 in
  proto.Proto.submit (txn [ Txn.read (key 0 0) ]) ~on_done:(fun () -> incr done_count);
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  Alcotest.(check int) "committed on retry" 1 !done_count;
  Alcotest.(check int) "abort recorded" 1 (Metrics.count cl.Cluster.metrics Aborts)

let test_batch_duration_scales_with_busy () =
  let cl = mk_cluster () in
  let commit_times = ref [] in
  let process_busy busy txns =
    {
      Batch.verdicts =
        Array.map
          (fun _ -> { Batch.committed = true; single_node = true; remastered = false })
          txns;
      node_busy = [| busy; 0.0 |];
      serial_time = 0.0;
      barrier_time = 0.0;
    }
  in
  let proto = Batch.create cl ~name:"t" ~process:(process_busy 1000.0) () in
  proto.Proto.submit (txn [ Txn.read (key 0 0) ]) ~on_done:(fun () ->
      commit_times := Engine.now cl.Cluster.engine :: !commit_times);
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  (* busy 1000 over 2 workers = 500 µs + epoch commit cost. *)
  match !commit_times with
  | [ t ] -> Alcotest.(check bool) "epoch >= exec time" true (t >= 500.0)
  | _ -> Alcotest.fail "expected one commit"

(* An epoch takes at most [batch_size] requests: the re-queued aborts
   first, then new submissions, each queue in arrival order. *)
let test_batch_epoch_takes_carryover_first () =
  let cl = mk_cluster () in
  let epochs = ref [] in
  let process txns =
    let ids = Array.to_list (Array.map (fun (t : Txn.t) -> t.Txn.id) txns) in
    let first = !epochs = [] in
    epochs := ids :: !epochs;
    {
      Batch.verdicts =
        Array.map
          (fun (t : Txn.t) ->
            { Batch.committed = not (first && t.Txn.id < 10); single_node = true;
              remastered = false })
          txns;
      node_busy = [| 1000.0; 1000.0 |];
      serial_time = 0.0;
      barrier_time = 0.0;
    }
  in
  let proto = Batch.create cl ~name:"t" ~process () in
  let submit id = proto.Proto.submit (txn ~id [ Txn.read (key 0 0) ]) ~on_done:ignore in
  for id = 0 to 15 do
    submit id
  done;
  (* Submitted while the first epoch runs: they wait in the buffer
     behind the ten aborts it re-queues. *)
  Engine.schedule cl.Cluster.engine ~delay:10.0 (fun () ->
      for id = 100 to 109 do
        submit id
      done);
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  let range a b = List.init (b - a + 1) (fun i -> a + i) in
  Alcotest.(check (list (list int)))
    "epochs"
    [ range 0 15; range 0 9 @ range 100 105; range 106 109 ]
    (List.rev !epochs)

(* [charge_replication] against the list formula it replaced: every
   live holder of each touched partition (primary, then secondaries)
   has applied the new record, and the bytes are one record per
   secondary, dead or alive. *)
let test_charge_replication_matches_lists () =
  let cfg = { small_cfg with Config.nodes = 5; replicas = 1; max_replicas = 4 } in
  let cl = mk_cluster ~cfg () in
  let pl = cl.Cluster.placement and repl = cl.Cluster.replication in
  (* Partition 0's primary is node 0. A crash drops the node's
     secondaries, so node 3 crashes first and is then placed as one of
     partition 0's three secondaries. *)
  Cluster.fail_node cl 3;
  List.iter (fun node -> Placement.add_secondary pl ~part:0 ~node) [ 1; 3; 4 ];
  Alcotest.(check (list int)) "three secondaries" [ 1; 3; 4 ] (Placement.secondaries pl 0);
  Alcotest.(check bool) "one dead" false (Cluster.alive cl 3);
  let parts_of (t : Txn.t) = t.Txn.parts in
  let t = txn [ Txn.write (key 0 1); Txn.read (key 2 0); Txn.write (key 7 3) ] in
  let holders p = Placement.primary pl p :: Placement.secondaries pl p in
  let expected_bytes =
    List.fold_left
      (fun acc p -> acc + (List.length (Placement.secondaries pl p) * Config.record_bytes))
      0 (parts_of t)
  in
  let bytes0 = Lion_sim.Network.total_bytes cl.Cluster.network in
  Lion_protocols.Batch_util.charge_replication cl t;
  Lion_protocols.Batch_util.charge_replication cl t;
  Alcotest.(check int) "bytes" (2 * expected_bytes)
    (Lion_sim.Network.total_bytes cl.Cluster.network - bytes0);
  List.iter
    (fun p ->
      let len = Lion_store.Replication.appends repl ~part:p in
      Alcotest.(check int) (Printf.sprintf "appends %d" p) 2 len;
      for node = 0 to Placement.nodes pl - 1 do
        let want = if List.mem node (holders p) && Cluster.alive cl node then len else 0 in
        Alcotest.(check int)
          (Printf.sprintf "applied part %d node %d" p node)
          want
          (Lion_store.Replication.applied repl ~part:p ~node)
      done)
    (parts_of t)

let test_batch_gives_up_after_max_retries () =
  let cl = mk_cluster () in
  let always_abort txns =
    {
      Batch.verdicts =
        Array.map
          (fun _ -> { Batch.committed = false; single_node = true; remastered = false })
          txns;
      node_busy = [| 10.0; 10.0 |];
      serial_time = 0.0;
      barrier_time = 0.0;
    }
  in
  let proto = Batch.create cl ~name:"t" ~process:always_abort ~max_retries:3 () in
  let done_count = ref 0 in
  proto.Proto.submit (txn [ Txn.read (key 0 0) ]) ~on_done:(fun () -> incr done_count);
  Engine.run_until cl.Cluster.engine (Engine.seconds 2.0);
  Alcotest.(check int) "forced commit keeps the loop live" 1 !done_count;
  Alcotest.(check int) "three aborts recorded" 3 (Metrics.count cl.Cluster.metrics Aborts)

(* Batch phases are the makespan's stages, measured. [epochs] lists one
   (committed, serial_time, barrier_time) per epoch the single request
   sits in; every epoch has one node busy 8 x 100 us over 8 workers,
   so 100 us of execution. Returns the recorded latency and the us per
   phase (its fraction of the phase total, which the stages make equal
   to the latency). *)
let batch_phases epochs =
  let cl = mk_cluster ~cfg:{ small_cfg with Config.workers_per_node = 8 } () in
  let remaining = ref epochs in
  let process txns =
    match !remaining with
    | [] -> Alcotest.fail "more epochs than planned"
    | (committed, serial_time, barrier_time) :: rest ->
        remaining := rest;
        {
          Batch.verdicts =
            Array.map (fun _ -> { Batch.committed; single_node = true; remastered = false }) txns;
          node_busy = [| 800.0; 0.0 |];
          serial_time;
          barrier_time;
        }
  in
  let proto = Batch.create cl ~name:"t" ~process () in
  proto.Proto.submit (txn [ Txn.read (key 0 0) ]) ~on_done:ignore;
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  let m = cl.Cluster.metrics in
  Alcotest.(check int) "one commit" 1 (Metrics.count m Commits);
  Alcotest.(check int) "aborts" (List.length epochs - 1) (Metrics.count m Aborts);
  let latency = Metrics.mean_latency m in
  (latency, fun p -> latency *. Metrics.phase_fraction m p)

let test_batch_phases_from_stages () =
  let check what want got = Alcotest.(check (float 1e-6)) what want got in
  let latency, phase = batch_phases [ (true, 100.0, 50.0) ] in
  let commit = latency -. 250.0 in
  Alcotest.(check bool) "epoch commit costs time" true (commit > 0.0);
  check "scheduling" 100.0 (phase Scheduling);
  check "execution" 100.0 (phase Execution);
  check "remaster" 50.0 (phase Remaster);
  check "commit" commit (phase Commit);
  check "prepare" 0.0 (phase Prepare);
  check "replication" 0.0 (phase Replication);
  (* Aborted in an epoch with only a serial term, committed in one with
     only a barrier: the request keeps the first epoch's stages too. *)
  let latency, phase = batch_phases [ (false, 100.0, 0.0); (true, 0.0, 50.0) ] in
  check "two epochs" (350.0 +. (2.0 *. commit)) latency;
  check "scheduling, first epoch" 100.0 (phase Scheduling);
  check "execution, both epochs" 200.0 (phase Execution);
  check "remaster, second epoch" 50.0 (phase Remaster);
  check "commit, both epochs" (2.0 *. commit) (phase Commit)

let test_2pc_records_prepare_phase () =
  let cl = mk_cluster () in
  let t = txn [ Txn.write (key 0 1); Txn.write (key 1 1) ] in
  ignore (run_txn cl t);
  Alcotest.(check bool) "prepare time recorded" true
    (Metrics.phase_fraction cl.Cluster.metrics Metrics.Prepare > 0.0);
  Alcotest.(check bool) "commit time recorded" true
    (Metrics.phase_fraction cl.Cluster.metrics Metrics.Commit > 0.0)

let test_blocked_partition_delays_execution () =
  let cl = mk_cluster () in
  (* Start a remaster so partition 0 is blocked, then run a transaction
     on it: the commit must land after the block expires. *)
  let target = Placement.secondaries cl.Cluster.placement 0 |> List.hd in
  Alcotest.(check bool) "remaster started" true
    (Cluster.try_begin_remaster cl ~part:0 ~node:target);
  let committed_at = ref 0.0 in
  Exec.run cl ~route:(fun _ -> 0) ~flavor:Exec.plain_2pc
    (txn [ Txn.write (key 0 5) ])
    ~on_done:(fun () -> committed_at := Engine.now cl.Cluster.engine);
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  Alcotest.(check bool) "waited for the block" true
    (!committed_at >= Config.default.Config.remaster_delay)

let test_conflict_verdicts_waw () =
  let t0 = txn ~id:0 [ Txn.write (key 0 5) ] in
  let t1 = txn ~id:1 [ Txn.write (key 0 5) ] in
  let t2 = txn ~id:2 [ Txn.write (key 0 6) ] in
  let ok = Batch.conflict_verdicts ~granule:fine [| t0; t1; t2 |] in
  Alcotest.(check (array bool)) "first wins" [| true; false; true |] ok

let test_conflict_verdicts_raw_only_for_aria () =
  let writer = txn ~id:0 [ Txn.write (key 0 5) ] in
  let reader = txn ~id:1 [ Txn.read (key 0 5) ] in
  let waw_only =
    Batch.conflict_verdicts ~granule:fine
      [| writer; reader |]
  in
  Alcotest.(check (array bool)) "reader safe without raw" [| true; true |] waw_only;
  let with_raw =
    Batch.conflict_verdicts ~include_raw:true
      ~granule:fine
      [| writer; reader |]
  in
  Alcotest.(check (array bool)) "raw aborts reader" [| true; false |] with_raw

let test_conflict_granule_coarsening () =
  let t0 = txn ~id:0 [ Txn.write (key 0 1) ] in
  let t1 = txn ~id:1 [ Txn.write (key 0 2) ] in
  let fine =
    Batch.conflict_verdicts ~granule:fine [| t0; t1 |]
  in
  Alcotest.(check (array bool)) "distinct keys fine" [| true; true |] fine;
  let coarse =
    Batch.conflict_verdicts ~granule:(coarse 16)
      [| t0; t1 |]
  in
  Alcotest.(check (array bool)) "same granule conflicts" [| true; false |] coarse

(* --- baselines' characteristic behaviour --- *)

let drive_protocol ?(cfg = small_cfg) ~make ~gen ~seconds () =
  let cl = Cluster.create ~seed:9 cfg in
  let proto = make cl in
  let engine = cl.Cluster.engine in
  let rec loop () =
    proto.Proto.submit (gen ()) ~on_done:(fun () ->
        Engine.schedule engine ~delay:0.0 loop)
  in
  for _ = 1 to 32 do
    loop ()
  done;
  let rec tick () =
    Engine.schedule engine ~delay:(Engine.seconds 0.5) (fun () ->
        proto.Proto.tick ();
        tick ())
  in
  tick ();
  Engine.run_until engine (Engine.seconds seconds);
  cl

let cross_pair_gen () =
  let i = ref 0 in
  fun () ->
    incr i;
    txn ~id:!i [ Txn.write (key 0 !i); Txn.write (key 1 !i) ]

let test_star_routes_cross_to_super_node () =
  let cl =
    drive_protocol ~make:Lion_protocols.Star.create ~gen:(cross_pair_gen ()) ~seconds:1.0 ()
  in
  Alcotest.(check bool) "commits happened" true (Metrics.count cl.Cluster.metrics Commits > 0);
  (* Every cross transaction is single-node on the super node. *)
  Alcotest.(check int) "all single node"
    (Metrics.count cl.Cluster.metrics Commits)
    (Metrics.count cl.Cluster.metrics Single_node_commits)

let test_calvin_no_aborts () =
  let cl =
    drive_protocol ~make:Lion_protocols.Calvin.create ~gen:(cross_pair_gen ()) ~seconds:1.0 ()
  in
  Alcotest.(check int) "deterministic: no aborts" 0 (Metrics.count cl.Cluster.metrics Aborts);
  Alcotest.(check bool) "commits" true (Metrics.count cl.Cluster.metrics Commits > 0)

let test_hermes_colocates_recurring_pair () =
  let cl =
    drive_protocol ~make:Lion_protocols.Hermes.create ~gen:(cross_pair_gen ()) ~seconds:2.0 ()
  in
  let total = Metrics.count cl.Cluster.metrics Commits in
  let single = Metrics.count cl.Cluster.metrics Single_node_commits in
  Alcotest.(check bool) "commits" true (total > 0);
  Alcotest.(check bool)
    (Printf.sprintf "mostly single-home after migration (%d/%d)" single total)
    true
    (float_of_int single /. float_of_int total > 0.5)

let test_aria_aborts_on_contention () =
  (* Everyone writes the same key: only one transaction per epoch can
     win its reservation. *)
  let gen () = txn [ Txn.write (key 0 0); Txn.write (key 1 0) ] in
  let cl = drive_protocol ~make:Lion_protocols.Aria.create ~gen ~seconds:1.0 () in
  Alcotest.(check bool) "aborts under contention" true (Metrics.count cl.Cluster.metrics Aborts > 0)

let test_lotus_single_home_never_aborts () =
  (* Same-partition contention serializes on the partition executor. *)
  let gen () = txn [ Txn.write (key 0 0) ] in
  let cl = drive_protocol ~make:Lion_protocols.Lotus.create ~gen ~seconds:1.0 () in
  Alcotest.(check int) "no aborts" 0 (Metrics.count cl.Cluster.metrics Aborts);
  Alcotest.(check bool) "commits" true (Metrics.count cl.Cluster.metrics Commits > 0)

let test_unified_commits_in_one_round () =
  let cl = mk_cluster () in
  let t = txn [ Txn.write (key 0 1); Txn.write (key 1 1) ] in
  let done_at = ref 0.0 in
  Lion_protocols.Proto.(
    (Lion_protocols.Unified.create cl).submit t ~on_done:(fun () ->
        done_at := Engine.now cl.Cluster.engine));
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  Alcotest.(check bool) "committed" true (!done_at > 0.0);
  Alcotest.(check int) "writes installed" 1 (Kvstore.version cl.Cluster.store (key 1 1));
  (* One fewer blocking round than classic 2PC on the same transaction. *)
  let cl2 = mk_cluster () in
  let done_2pc = ref 0.0 in
  Lion_protocols.Proto.(
    (Lion_protocols.Twopc.create cl2).submit t ~on_done:(fun () ->
        done_2pc := Engine.now cl2.Cluster.engine));
  Engine.run_until cl2.Cluster.engine (Engine.seconds 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "unified %.0f faster than 2PC %.0f" !done_at !done_2pc)
    true (!done_at < !done_2pc)

let test_clay_acts_only_on_imbalance () =
  (* Balanced cross workload: Clay must not migrate anything. *)
  let cl =
    drive_protocol ~make:Lion_protocols.Clay.create
      ~gen:(cross_pair_gen ()) ~seconds:1.5 ()
  in
  Alcotest.(check int) "no migrations when balanced" 0
    (Lion_sim.Metrics.count cl.Cluster.metrics Replica_adds)

(* --- property tests --- *)

let small_txns_gen =
  (* Random batches of single-write transactions over a small key space
     to force conflicts. *)
  QCheck.(
    list_of_size (Gen.int_range 1 50)
      (pair (int_range 0 3) (int_range 0 7)))

let prop_first_writer_always_wins =
  QCheck.Test.make ~name:"first writer of a granule always commits" ~count:200
    small_txns_gen
    (fun specs ->
      let txns =
        Array.of_list
          (List.mapi (fun i (part, slot) -> txn ~id:i [ Txn.write (key part slot) ]) specs)
      in
      let ok =
        Batch.conflict_verdicts ~granule:fine txns
      in
      (* For every granule, the earliest writer must have ok = true. *)
      let seen = Hashtbl.create 16 in
      let good = ref true in
      Array.iteri
        (fun i t ->
          List.iter
            (fun k ->
              let g = fine k in
              if not (Hashtbl.mem seen g) then (
                Hashtbl.add seen g ();
                if not ok.(i) then good := false))
            (Txn.write_keys t))
        txns;
      !good)

let prop_window_reset_allows_later_winners =
  QCheck.Test.make ~name:"per-window reservation: one winner per granule per window"
    ~count:200 small_txns_gen
    (fun specs ->
      let txns =
        Array.of_list
          (List.mapi (fun i (part, slot) -> txn ~id:i [ Txn.write (key part slot) ]) specs)
      in
      let window = 5 in
      let ok =
        Batch.conflict_verdicts ~window
          ~granule:fine
          txns
      in
      (* Within each window chunk, committed writers of a granule <= 1. *)
      let good = ref true in
      let chunks = (Array.length txns + window - 1) / window in
      for c = 0 to chunks - 1 do
        let winners = Hashtbl.create 8 in
        for i = c * window to Stdlib.min ((c + 1) * window) (Array.length txns) - 1 do
          if ok.(i) then
            List.iter
              (fun k ->
                let g = fine k in
                if Hashtbl.mem winners g then good := false else Hashtbl.add winners g ())
              (Txn.write_keys txns.(i))
        done
      done;
      !good)

let prop_read_only_batches_never_abort =
  QCheck.Test.make ~name:"read-only batches never abort" ~count:100 small_txns_gen
    (fun specs ->
      let txns =
        Array.of_list
          (List.mapi (fun i (part, slot) -> txn ~id:i [ Txn.read (key part slot) ]) specs)
      in
      let ok =
        Batch.conflict_verdicts ~include_raw:true
          ~granule:fine
          txns
      in
      Array.for_all Fun.id ok)

(* A naive model of [Batch.conflict_verdicts]: per window, a list of
   reserved granules; a transaction aborts when one of its footprint
   writes (or, with [include_raw], reads) hits the list, and otherwise
   reserves its footprint writes. *)
let model_verdicts ~include_raw ~window ~footprint ~granule txns =
  let reserved = ref [] in
  Array.mapi
    (fun i txn ->
      if i mod window = 0 then reserved := [];
      let granules keys = List.map granule (List.filter (footprint i) keys) in
      let writes = granules (Txn.write_keys txn) and reads = granules (Txn.read_keys txn) in
      let hit g = List.mem g !reserved in
      let doomed = List.exists hit writes || (include_raw && List.exists hit reads) in
      if not doomed then reserved := writes @ !reserved;
      not doomed)
    txns

(* Batches of up to 300 transactions of up to 8 operations; the slot
   range is either tiny (heavy contention) or wide enough that a window
   reserves thousands of granules, which grows the stamped set. *)
let conflict_case_gen =
  QCheck.Gen.(
    let* slots = oneofl [ 8; 100_000 ] in
    let op = map3 (fun w part slot -> (w, part, slot)) bool (int_range 0 3) (int_range 0 (slots - 1)) in
    let* txns = list_size (int_range 0 300) (list_size (int_range 1 8) op) in
    let* window = opt (int_range 1 40) in
    let* include_raw = bool in
    let* granule_size = oneofl [ 1; 4; 16 ] in
    let* remote_parity = opt (int_range 0 1) in
    return (txns, window, include_raw, granule_size, remote_parity))

let prop_conflict_verdicts_match_model =
  QCheck.Test.make ~name:"conflict_verdicts equals the naive first-reserver model" ~count:300
    (QCheck.make conflict_case_gen)
    (fun (specs, window, include_raw, granule_size, remote_parity) ->
      let txns =
        Array.of_list
          (List.mapi
             (fun id ops ->
               txn ~id
                 (List.map
                    (fun (w, part, slot) ->
                      if w then Txn.write (key part slot) else Txn.read (key part slot))
                    ops))
             specs)
      in
      let granule = if granule_size = 1 then fine else coarse granule_size in
      (* Lotus-style footprint: the keys on partitions of one parity,
         shifted by the transaction's index, count; the rest are home
         keys. *)
      let footprint =
        Option.map (fun parity i k -> (Kvstore.part k + i) mod 2 = parity) remote_parity
      in
      let got = Batch.conflict_verdicts ~include_raw ?window ?footprint ~granule txns in
      let want =
        model_verdicts ~include_raw
          ~window:(Option.value window ~default:(Array.length txns))
          ~footprint:(Option.value footprint ~default:(fun _ _ -> true))
          ~granule txns
      in
      got = want)

let () =
  Alcotest.run "lion_protocols"
    [
      ( "exec",
        [
          Alcotest.test_case "grouping order" `Quick test_groups_preserve_order;
          Alcotest.test_case "route most primaries" `Quick test_route_most_primaries;
          Alcotest.test_case "single-node commit" `Quick test_single_node_commit_skips_prepare;
          Alcotest.test_case "distributed 2PC" `Quick test_distributed_commit_runs_2pc;
          Alcotest.test_case "conflicts serialize" `Quick test_conflicting_txns_serialize;
          Alcotest.test_case "lion remasters secondary" `Quick
            test_lion_flavor_remasters_secondary;
          Alcotest.test_case "leap migrates" `Quick test_leap_flavor_migrates_everything;
          Alcotest.test_case "abort bookkeeping" `Quick test_abort_retry_records_aborts;
        ] );
      ( "batch",
        [
          Alcotest.test_case "epoch commits all" `Quick test_batch_epoch_commits_all;
          Alcotest.test_case "aborted retry next epoch" `Quick
            test_batch_aborted_retry_next_epoch;
          Alcotest.test_case "duration from busy time" `Quick
            test_batch_duration_scales_with_busy;
          Alcotest.test_case "carryover first, capped" `Quick
            test_batch_epoch_takes_carryover_first;
          Alcotest.test_case "replication charge" `Quick test_charge_replication_matches_lists;
          Alcotest.test_case "WAW conflicts" `Quick test_conflict_verdicts_waw;
          Alcotest.test_case "RAW only for Aria" `Quick test_conflict_verdicts_raw_only_for_aria;
          Alcotest.test_case "granule coarsening" `Quick test_conflict_granule_coarsening;
          Alcotest.test_case "give-up after retries" `Quick
            test_batch_gives_up_after_max_retries;
          Alcotest.test_case "phases from the stages" `Quick test_batch_phases_from_stages;
          Alcotest.test_case "2PC prepare phase recorded" `Quick
            test_2pc_records_prepare_phase;
          Alcotest.test_case "blocked partition delays" `Quick
            test_blocked_partition_delays_execution;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "Star super node" `Quick test_star_routes_cross_to_super_node;
          Alcotest.test_case "Calvin no aborts" `Quick test_calvin_no_aborts;
          Alcotest.test_case "Hermes co-locates" `Quick test_hermes_colocates_recurring_pair;
          Alcotest.test_case "Aria aborts on contention" `Quick test_aria_aborts_on_contention;
          Alcotest.test_case "Lotus single-home safe" `Quick
            test_lotus_single_home_never_aborts;
          Alcotest.test_case "Clay needs imbalance" `Quick test_clay_acts_only_on_imbalance;
          Alcotest.test_case "Unified one-round commit" `Quick
            test_unified_commits_in_one_round;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_first_writer_always_wins;
            prop_window_reset_allows_later_winners;
            prop_read_only_batches_never_abort;
            prop_conflict_verdicts_match_model;
            prop_groups_match_hashtbl_reference;
          ] );
    ]
