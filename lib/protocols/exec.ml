module Cluster = Lion_store.Cluster
module Placement = Lion_store.Placement
module Kvstore = Lion_store.Kvstore
module Config = Lion_store.Config
module Engine = Lion_sim.Engine
module Network = Lion_sim.Network
module Metrics = Lion_sim.Metrics
module Rng = Lion_kernel.Rng
module Txn = Lion_workload.Txn
module Trace = Lion_trace.Trace
module History = Lion_store.History

type flavor = {
  remaster_secondary : bool;
  migrate_on_access : bool;
  unified_commit : bool;
  read_at_secondary : bool;
}

let plain_2pc =
  {
    remaster_secondary = false;
    migrate_on_access = false;
    unified_commit = false;
    read_at_secondary = false;
  }

let leap_flavor = { plain_2pc with migrate_on_access = true }
let lion_flavor = { plain_2pc with remaster_secondary = true }
let unified_flavor = { plain_2pc with unified_commit = true }

(* Group a transaction's operations by partition, preserving first-
   appearance order of partitions and op order within each group. *)
let groups_of (txn : Txn.t) =
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

(* Ties break on a hash of the partition set so coordinators spread
   across the tied nodes instead of piling onto one id. *)
let route_most_primaries cl (txn : Txn.t) =
  let placement = cl.Cluster.placement in
  let nodes = Placement.nodes placement in
  let best_count = ref (-1) in
  for node = 0 to nodes - 1 do
    if Cluster.alive cl node then (
      let count = Placement.count_primaries_at placement txn.Txn.parts ~node in
      if count > !best_count then best_count := count)
  done;
  let tied = ref [] in
  for node = nodes - 1 downto 0 do
    if
      Cluster.alive cl node
      && Placement.count_primaries_at placement txn.Txn.parts ~node = !best_count
    then tied := node :: !tied
  done;
  match !tied with
  | [] -> invalid_arg "route_most_primaries: no live node"
  | [ n ] -> n
  | candidates -> List.nth candidates (Hashtbl.hash txn.Txn.parts mod List.length candidates)

type result = {
  committed : bool;
  single_node : bool;
  remastered : bool;
  phases : (Metrics.phase * float) list;
}

let record_op session op =
  if Txn.is_write op then Kvstore.write session (Txn.key_of op)
  else Kvstore.read session (Txn.key_of op)

let record_ops session ops = List.iter (record_op session) ops

(* Leap-style aggressive mastership pull: ownership (and the accessed
   tuples) move to the coordinator before the operation executes. *)
let leap_migration_overhead = 200.0

let attempt ?ctx ?(attempt_no = 1) ?deadline cl ~coordinator ~txn ~flavor ~k =
  let cfg = cl.Cluster.cfg in
  let engine = cl.Cluster.engine in
  let placement = cl.Cluster.placement in
  if not (Cluster.alive cl coordinator) then
    (* The router's liveness view lagged the crash: abort immediately;
       the retry loop re-routes to a live coordinator. *)
    k { committed = false; single_node = false; remastered = false; phases = [] }
  else
  (* Admission wait gets its own span phase, opened only when the grant
     cannot be immediate (every worker leased right now) — an unloaded
     run allocates nothing and traces identically. *)
  let qctx =
    if Cluster.worker_saturated cl ~node:coordinator then
      Trace.child ~node:coordinator ~phase:"queue" ~name:"worker-wait"
        ~ts:(Engine.now engine) ctx
    else None
  in
  Cluster.acquire_worker cl ~node:coordinator
    ~on_fail:(fun () ->
      (* Shed at admission (bounded worker queue, or the coordinator
         died with this request parked): no lease was granted, so there
         is nothing to release — report the attempt failed. *)
      Trace.note ~ts:(Engine.now engine) "shed" qctx;
      Trace.finish ~ts:(Engine.now engine) qctx;
      k { committed = false; single_node = false; remastered = false; phases = [] })
    (fun lease ->
      Trace.finish ~ts:(Engine.now engine) qctx;
      let session = Kvstore.begin_session cl.Cluster.store in
      (* Consistency-audit hook: one history event per attempt, with the
         versions the session observed and (for commits) the versions
         [finalize] installed. [None] records nothing and costs one
         match — runs without a sink are untouched. *)
      let record_outcome outcome =
        match cl.Cluster.history with
        | None -> ()
        | Some h ->
            let writes =
              match outcome with
              | History.Committed ->
                  List.sort_uniq Kvstore.key_compare (Kvstore.write_set session)
                  |> List.map (fun key -> (key, Kvstore.version cl.Cluster.store key))
              | History.Aborted | History.Indeterminate -> []
            in
            History.record h ~txn_id:txn.Txn.id ~attempt:attempt_no
              ~reads:(Kvstore.observed_reads session) ~writes ~outcome
              ~ts:(Engine.now engine)
      in
      let exec_start = Engine.now engine in
      let remaster_time = ref 0.0 in
      let used_remaster = ref false in
      let remote_parts = ref [] in
      (* Abort path for unreachable participants / unavailable
         partitions: give the worker back and let the caller retry. *)
      let fail_txn () =
        record_outcome History.Aborted;
        Cluster.release_worker cl ~node:coordinator lease;
        k
          {
            committed = false;
            single_node = false;
            remastered = !used_remaster;
            phases = [];
          }
      in
      let rec step groups k_done =
        match groups with
        | [] -> k_done ()
        | (part, ops) :: rest ->
            Cluster.touch_partition cl part;
            let n_ops = List.length ops in
            let local_work = float_of_int n_ops *. cfg.Config.local_op_cost in
            let after_exec () = step rest k_done in
            let execute_locally () =
              record_ops session ops;
              let lctx =
                Trace.child ~node:coordinator ~part ~phase:"execution"
                  ~name:"exec-local" ~ts:(Engine.now engine) ctx
              in
              Engine.schedule engine
                ~delay:(local_work *. Cluster.work_scale cl coordinator)
                (fun () ->
                  Trace.finish ~ts:(Engine.now engine) lctx;
                  after_exec ())
            in
            let execute_remote () =
              remote_parts := part :: !remote_parts;
              let prim = Placement.primary placement part in
              let rctx =
                Trace.child ~node:prim ~part ~phase:"execution"
                  ~name:"exec-remote" ~ts:(Engine.now engine) ctx
              in
              Cluster.rpc cl ?deadline ~src:coordinator ~dst:prim
                ~bytes:(cfg.Config.op_msg_bytes * n_ops)
                ~work:(local_work +. cfg.Config.msg_handle_cost)
                ~on_fail:(fun () ->
                  Trace.finish ~ts:(Engine.now engine) rctx;
                  fail_txn ())
                ?ctx:rctx
                (fun () ->
                  Trace.finish ~ts:(Engine.now engine) rctx;
                  record_ops session ops;
                  after_exec ())
            in
            let all_reads = List.for_all (fun op -> not (Txn.is_write op)) ops in
            let proceed () =
              if Placement.has_primary placement ~part ~node:coordinator then
                execute_locally ()
              else if
                flavor.read_at_secondary && all_reads
                && Placement.has_secondary placement ~part ~node:coordinator
              then
                (* Bounded-staleness read served by the local secondary:
                   no promotion, no round trip. *)
                execute_locally ()
              else if
                flavor.remaster_secondary
                && Placement.has_secondary placement ~part ~node:coordinator
              then
                if Cluster.try_begin_remaster cl ~part ~node:coordinator then (
                  used_remaster := true;
                  let t0 = Engine.now engine in
                  let rctx =
                    Trace.child ~node:coordinator ~part ~phase:"remaster"
                      ~name:"remaster" ~ts:t0 ctx
                  in
                  Engine.schedule engine ~delay:cfg.Config.remaster_delay (fun () ->
                      Trace.finish ~ts:(Engine.now engine) rctx;
                      remaster_time := !remaster_time +. (Engine.now engine -. t0);
                      (* The transfer may not have landed (this node
                         crashed mid-flight and the cluster rolled the
                         remaster back): re-check who is primary. *)
                      if not (Cluster.alive cl coordinator) then fail_txn ()
                      else if Placement.has_primary placement ~part ~node:coordinator
                      then execute_locally ()
                      else execute_remote ()))
                else
                  (* Remastering conflict: another transaction is
                     promoting this partition — fall back to 2PC. *)
                  execute_remote ()
              else if flavor.migrate_on_access then (
                used_remaster := true;
                let prim = Placement.primary placement part in
                let bytes = n_ops * cfg.Config.record_bytes in
                let delay =
                  Network.roundtrip cl.Cluster.network ~bytes +. leap_migration_overhead
                in
                (* Migration blocks concurrent transactions on the
                   partition for the transfer (§II-B). *)
                Cluster.block_partition_for cl ~part ~duration:delay;
                Network.send cl.Cluster.network ~src:prim ~dst:coordinator ~bytes
                  (fun () -> ());
                let t0 = Engine.now engine in
                let mctx =
                  Trace.child ~node:coordinator ~part ~phase:"remaster"
                    ~name:"migrate" ~ts:t0 ctx
                in
                Engine.schedule engine ~delay (fun () ->
                    Trace.finish ~ts:(Engine.now engine) mctx;
                    remaster_time := !remaster_time +. (Engine.now engine -. t0);
                    if not (Cluster.alive cl coordinator) then fail_txn ()
                    else begin
                      if not (Placement.has_replica placement ~part ~node:coordinator)
                      then (
                        if
                          Placement.replica_count placement part
                          >= Placement.max_replicas placement
                        then
                          (* Shed a secondary to make room for the pulled
                             mastership; pick deterministically. *)
                          (match Placement.secondaries placement part with
                          | victim :: _ ->
                              Placement.remove_secondary placement ~part ~node:victim;
                              Cluster.note_replica_dropped cl ~part ~node:victim
                          | [] -> ());
                        Placement.add_secondary placement ~part ~node:coordinator);
                      let old_prim = Placement.primary placement part in
                      Placement.remaster placement ~part ~node:coordinator;
                      (* The pulled tuples are current as of the pull. *)
                      Cluster.note_replica_synced cl ~part ~node:coordinator;
                      (* [remaster] demoted the old primary to secondary;
                         if it died while the tuples were in flight, purge
                         the phantom copy it would otherwise keep. *)
                      if old_prim <> coordinator && not (Cluster.alive cl old_prim)
                      then (
                        Placement.remove_secondary placement ~part ~node:old_prim;
                        Cluster.note_replica_dropped cl ~part ~node:old_prim);
                      execute_locally ()
                    end))
              else execute_remote ()
            in
            let wait = Cluster.partition_wait cl part in
            if wait > 0.0 then
              if wait = infinity then
                (* Partition lost its quorum (no surviving replica):
                   don't park the transaction on a never-firing event —
                   time out and abort, the retry loop keeps probing
                   until the partition's node recovers. *)
                Engine.schedule engine ~delay:cfg.Config.rpc_timeout (fun () ->
                    Metrics.record_timeout cl.Cluster.metrics;
                    Trace.note ~ts:(Engine.now engine) "timeout" ctx;
                    fail_txn ())
              else (
                let t0 = Engine.now engine in
                let wctx =
                  Trace.child ~part ~phase:"remaster" ~name:"part-wait" ~ts:t0
                    ctx
                in
                Engine.schedule engine ~delay:wait (fun () ->
                    Trace.finish ~ts:(Engine.now engine) wctx;
                    remaster_time := !remaster_time +. (Engine.now engine -. t0);
                    proceed ()))
            else proceed ()
      in
      let begin_groups () =
        step (groups_of txn) (fun () ->
          let exec_time =
            Stdlib.max 0.0 (Engine.now engine -. exec_start -. !remaster_time)
          in
          let finish result =
            Cluster.release_worker cl ~node:coordinator lease;
            k result
          in
          let base_phases =
            [ (Metrics.Execution, exec_time); (Metrics.Remaster, !remaster_time) ]
          in
          let remote = List.sort_uniq compare !remote_parts in
          if remote = [] then
            if Kvstore.try_reserve session then (
              Kvstore.finalize session;
              record_outcome History.Committed;
              Cluster.replicate_commit cl ?ctx txn.Txn.parts;
              finish
                {
                  committed = true;
                  single_node = true;
                  remastered = !used_remaster;
                  phases = base_phases;
                })
            else (
              record_outcome History.Aborted;
              finish
                {
                  committed = false;
                  single_node = true;
                  remastered = !used_remaster;
                  phases = base_phases;
                })
          else (
            (* 2PC. Participants are the current primary nodes of the
               remote partitions. *)
            let participants =
              if flavor.unified_commit then
                (* One unified round engages every replica holder of
                   every remote partition. *)
                List.concat_map
                  (fun part ->
                    Placement.primary placement part
                    :: Placement.secondaries placement part)
                  remote
                |> List.sort_uniq compare
                |> List.filter (fun n -> n <> coordinator)
              else
                List.sort_uniq compare (List.map (Placement.primary placement) remote)
                |> List.filter (fun n -> n <> coordinator)
            in
            let prepare_start = Engine.now engine in
            let pctx =
              Trace.child ~node:coordinator ~phase:"prepare" ~name:"2pc-prepare"
                ~ts:prepare_start ctx
            in
            let prepare_bytes = cfg.Config.op_msg_bytes + cfg.Config.record_bytes in
            let after_prepare () =
              Trace.finish ~ts:(Engine.now engine) pctx;
              let prepare_time = Engine.now engine -. prepare_start in
              (* Participants replicate their prepare logs. *)
              Cluster.replicate_commit cl ?ctx remote;
              if Kvstore.try_reserve session then (
                if flavor.unified_commit then (
                  (* The unified round already carried the writes and
                     collected every replica's vote: commit now, send
                     the decision one-way. *)
                  Kvstore.finalize session;
                  record_outcome History.Committed;
                  List.iter
                    (fun node ->
                      Network.send cl.Cluster.network ~src:coordinator ~dst:node
                        ~bytes:cfg.Config.op_msg_bytes (fun () -> ()))
                    participants;
                  finish
                    {
                      committed = true;
                      single_node = false;
                      remastered = !used_remaster;
                      phases =
                        base_phases @ [ (Metrics.Prepare, prepare_time) ];
                    })
                else
                let commit_start = Engine.now engine in
                let cctx =
                  Trace.child ~node:coordinator ~phase:"commit"
                    ~name:"2pc-commit" ~ts:commit_start ctx
                in
                let after_commit () =
                  Trace.finish ~ts:(Engine.now engine) cctx;
                  let commit_time = Engine.now engine -. commit_start in
                  Kvstore.finalize session;
                  record_outcome History.Committed;
                  Cluster.replicate_commit cl ?ctx txn.Txn.parts;
                  finish
                    {
                      committed = true;
                      single_node = false;
                      remastered = !used_remaster;
                      phases =
                        base_phases
                        @ [
                            (Metrics.Prepare, prepare_time);
                            (Metrics.Commit, commit_time);
                          ];
                    }
                in
                match
                  Proto.join_now (List.length participants) after_commit
                with
                | None -> ()
                | Some cb ->
                    List.iter
                      (fun node ->
                        (* The decision is already durable: a participant
                           that never acknowledges (crashed, partitioned
                           away) learns the outcome on recovery, so an
                           exhausted commit RPC counts as delivered. *)
                        Cluster.rpc cl ?deadline ~src:coordinator ~dst:node
                          ~bytes:cfg.Config.op_msg_bytes
                          ~work:cfg.Config.msg_handle_cost ~on_fail:cb
                          ?ctx:cctx cb)
                      participants)
              else (
                (* Validation failed: one-way aborts, no waiting. *)
                record_outcome History.Aborted;
                List.iter
                  (fun node ->
                    Network.send cl.Cluster.network ~src:coordinator ~dst:node
                      ~bytes:cfg.Config.op_msg_bytes (fun () -> ()))
                  participants;
                finish
                  {
                    committed = false;
                    single_node = false;
                    remastered = !used_remaster;
                    phases =
                      base_phases @ [ (Metrics.Prepare, Engine.now engine -. prepare_start) ];
                  })
            in
            (* Presumed abort (§2PC under faults): if any participant
               stays unreachable through the RPC retry schedule, the
               coordinator aborts, tells the reachable participants
               one-way, and gives the attempt up. *)
            (* The coordinator never learned every vote: presumed abort
               resolves it internally, but an external auditor must
               treat the outcome as indeterminate. *)
            let on_prepare_fail () =
              record_outcome History.Indeterminate;
              Trace.finish ~ts:(Engine.now engine) pctx;
              List.iter
                (fun node ->
                  Network.send cl.Cluster.network ~src:coordinator ~dst:node
                    ~bytes:cfg.Config.op_msg_bytes (fun () -> ()))
                participants;
              finish
                {
                  committed = false;
                  single_node = false;
                  remastered = !used_remaster;
                  phases =
                    base_phases
                    @ [ (Metrics.Prepare, Engine.now engine -. prepare_start) ];
                }
            in
            let ok, fail =
              Proto.join_or_fail (List.length participants) ~on_ok:after_prepare
                ~on_fail:on_prepare_fail
            in
            List.iter
              (fun node ->
                Cluster.rpc cl ?deadline ~src:coordinator ~dst:node
                  ~bytes:prepare_bytes ~work:cfg.Config.msg_handle_cost
                  ~on_fail:fail ?ctx:pctx ok)
              participants))
      in
      let sctx =
        Trace.child ~node:coordinator ~phase:"scheduling" ~name:"setup"
          ~ts:(Engine.now engine) ctx
      in
      Engine.schedule engine
        ~delay:(cfg.Config.txn_setup_cost *. Cluster.work_scale cl coordinator)
        (fun () ->
          Trace.finish ~ts:(Engine.now engine) sctx;
          begin_groups ()))

let run cl ~route ~flavor txn ~on_done =
  let cfg = cl.Cluster.cfg in
  let engine = cl.Cluster.engine in
  let start = Engine.now engine in
  let octx =
    match cl.Cluster.tracer with
    | None -> None
    | Some tracer -> Trace.start_txn tracer ~ts:start ~txn_id:txn.Txn.id
  in
  (* The deadline is the client's patience — always measured when set.
     [enforced] is the protection: only then do RPCs stop retransmitting
     and aborted attempts stop retrying past it. Keeping the two apart
     lets the metastable repro measure goodput identically on the
     unprotected baseline. *)
  let enforced =
    match cfg.Config.deadline with
    | Some { Config.after; enforce = true } -> Some (start +. after)
    | _ -> None
  in
  let attempts = ref 0 in
  let rec go () =
    incr attempts;
    let coordinator = route txn in
    let actx =
      match octx with
      | None -> None
      | Some _ ->
          Trace.child ~node:coordinator ~phase:"execution"
            ~name:(Printf.sprintf "attempt %d" !attempts)
            ~ts:(Engine.now engine) octx
    in
    attempt ?ctx:actx ~attempt_no:!attempts ?deadline:enforced cl ~coordinator
      ~txn ~flavor
      ~k:(fun r ->
        Trace.finish ~ts:(Engine.now engine) actx;
        if r.committed then (
          let interval = cfg.Config.group_commit_interval in
          let wait = interval -. Float.rem (Engine.now engine) interval in
          let latency = Engine.now engine -. start +. wait in
          let phases = r.phases @ [ (Metrics.Replication, wait) ] in
          (* Committed but late: it still counts as a commit (throughput)
             while goodput discounts it — the client gave up waiting. *)
          let late = Config.misses_deadline cfg latency in
          if late then Metrics.record_deadline_miss cl.Cluster.metrics;
          let gctx =
            Trace.child ~phase:"replication" ~name:"group-commit-wait"
              ~ts:(Engine.now engine) octx
          in
          Engine.schedule engine ~delay:wait (fun () ->
              Trace.finish ~ts:(Engine.now engine) gctx;
              Metrics.record_commit ~late cl.Cluster.metrics ~latency
                ~single_node:r.single_node ~remastered:r.remastered ~phases;
              Trace.finish_txn ~ts:(Engine.now engine) ~ok:true octx);
          on_done ())
        else (
          Trace.note_abort ~ts:(Engine.now engine)
            (match actx with Some _ -> actx | None -> octx);
          Metrics.record_abort cl.Cluster.metrics;
          match enforced with
          | Some d when Engine.now engine >= d ->
              (* Deadline propagation, load-shedding half: a transaction
                 already older than any client would wait for stops
                 consuming retries — the metastable sustaining loop
                 (ever-growing population of retrying zombies) is cut
                 here. *)
              Metrics.record_deadline_giveup cl.Cluster.metrics;
              Trace.note ~ts:(Engine.now engine) "deadline-giveup" octx;
              Trace.finish_txn ~ts:(Engine.now engine) ~ok:false octx;
              on_done ()
          | _ ->
              let cap = Stdlib.min 8 !attempts in
              let backoff =
                (50.0 *. float_of_int (1 lsl cap))
                +. Rng.float cl.Cluster.rng 50.0
              in
              Engine.schedule engine ~delay:(Stdlib.min 2000.0 backoff) go))
  in
  go ()
