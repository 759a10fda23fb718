module Cluster = Lion_store.Cluster
module Transport = Lion_store.Transport
module Placement = Lion_store.Placement
module Kvstore = Lion_store.Kvstore
module Config = Lion_store.Config
module Engine = Lion_sim.Engine
module Metrics = Lion_sim.Metrics
module Rng = Lion_kernel.Rng
module Txn = Lion_workload.Txn
module Trace = Lion_trace.Trace
module History = Lion_store.History

(* Epoch-based optimistic commit (docs/GEO.md, after "Epoch-based
   Optimistic Concurrency Control in Geo-replicated Databases"):
   transactions execute optimistically at their coordinator with no
   per-operation cross-node round trips, park until the next epoch
   boundary, and the boundary validates the whole batch and runs ONE
   cross-region replication round for everything that validated. A
   cross-region transaction therefore costs amortised-WAN instead of
   per-transaction WAN — the regime where Lion's remastering (a WAN
   latency cliff per leader transfer) loses.

   Serializability: execution records observed versions in a Kvstore
   session; the boundary takes [try_reserve] (validate + write-lock) in
   arrival order, holds the reservations across the WAN round, and only
   then [finalize]s — so concurrent epochs and optimistic readers of
   reserved keys fail their own validation and retry. The PR 3 checker
   audits the resulting histories like any other protocol's. *)

type pending = {
  txn : Txn.t;
  session : Kvstore.session;
  coordinator : int;
  start : float;  (* first submission time *)
  attempt : int;
  phases : Metrics.phase_times;
      (* the transaction's clock: scheduling while parked, replication
         through the epoch's round *)
  octx : Trace.ctx option;
}

type t = {
  cl : Cluster.t;
  mutable parked : pending list;  (* reverse arrival order *)
  mutable timer_armed : bool;
  mutable epochs : int;
}

(* Epoch length, µs: optimistic execution parks until the next
   boundary, where validation and one cross-region replication round
   happen for the whole epoch. *)
let interval = 20_000.0

(* Give-up bound for pathological schedules (every region unreachable
   past any nemesis horizon): keeps [Engine.run_all] terminating. Far
   above anything a healing fault plan produces. *)
let max_attempts = 1000

let record_outcome t (p : pending) outcome =
  match t.cl.Cluster.history with
  | None -> ()
  | Some h ->
      History.record_session h ~store:t.cl.Cluster.store p.session ~txn_id:p.txn.Txn.id
        ~attempt:p.attempt ~outcome ~ts:(Engine.now t.cl.Cluster.engine)

(* One epoch-close timer at a time, armed only while transactions are
   parked or executing toward a park — a free-running self-rescheduling
   timer would keep the event queue alive forever and [Engine.run_all]
   (the audit drain) would never terminate. *)
let rec arm_timer t =
  if not t.timer_armed then (
    t.timer_armed <- true;
    let engine = t.cl.Cluster.engine in
    let wait = interval -. Float.rem (Engine.now engine) interval in
    Engine.schedule engine ~delay:wait (fun () ->
        t.timer_armed <- false;
        close_epoch t))

(* Live peers carrying the epoch's replication round: the lowest live
   member node of every region other than the leader's. Region-free
   (and single-region) clusters have no peers — the round is free, and
   the protocol degrades to boundary-validated local OCC. *)
and replication_peers t ~leader =
  let cl = t.cl in
  let lr = Cluster.region_of cl leader in
  let peers = ref [] in
  List.iter
    (fun n ->
      let r = Cluster.region_of cl n in
      if r <> lr && not (List.exists (fun (r', _) -> r' = r) !peers) then
        peers := (r, n) :: !peers)
    (Cluster.alive_nodes cl);
  List.rev_map snd !peers

and close_epoch t =
  let cl = t.cl in
  let engine = cl.Cluster.engine in
  let cfg = cl.Cluster.cfg in
  let batch = List.rev t.parked in
  t.parked <- [];
  if batch <> [] then (
    t.epochs <- t.epochs + 1;
    let boundary = Engine.now engine in
    (* Validation in arrival order: winners hold their write
       reservations through the replication round; losers (stale reads,
       or a conflict with an earlier winner of this same epoch) abort
       and re-execute next epoch. A parked transaction whose
       coordinator died loses too — its optimistic state died with the
       node. *)
    let winners =
      List.filter
        (fun p ->
          if Cluster.alive cl p.coordinator && Kvstore.try_reserve p.session
          then (
            Metrics.charge p.phases Scheduling ~now:boundary;
            true)
          else (
            abort_retry t p;
            false))
        batch
    in
    if winners <> [] then (
      let leader = (List.hd winners).coordinator in
      let peers = replication_peers t ~leader in
      let total_writes =
        List.fold_left
          (fun acc p -> acc + Kvstore.write_count p.session)
          0 winners
      in
      let bytes = Config.op_msg_bytes + (Config.record_bytes * total_writes) in
      (* Per-winner replication span: pure trace data (only allocated
         for sampled transactions), closed when the round resolves,
         where every winner's replication stretch ends too. *)
      let spans =
        List.filter_map
          (fun p ->
            Trace.child ~node:leader ~phase:Replication ~name:"epoch-commit"
              ~ts:boundary p.octx)
          (List.filter (fun p -> p.octx <> None) winners)
      in
      let end_round () =
        List.iter
          (fun s -> Trace.finish ~ts:(Engine.now engine) (Some s))
          spans;
        List.iter (fun p -> Metrics.charge p.phases Replication ~now:(Engine.now engine)) winners
      in
      let commit_all () =
        end_round ();
        List.iter
          (fun p ->
            Kvstore.finalize p.session;
            record_outcome t p History.Committed;
            Transport.replicate_commit cl ?ctx:p.octx p.txn.Txn.parts;
            let latency = Engine.now engine -. p.start in
            let late = Config.misses_deadline cfg latency in
            let single_node =
              peers = []
              && List.for_all
                   (fun part ->
                     Placement.has_primary cl.Cluster.placement ~part
                       ~node:p.coordinator)
                   p.txn.Txn.parts
            in
            Metrics.record_commit ~late cl.Cluster.metrics ~latency
              ~single_node ~remastered:false ~phases:p.phases;
            Trace.finish_txn ~ts:(Engine.now engine) ~ok:true p.octx)
          winners
      in
      let abort_all () =
        end_round ();
        Metrics.incr cl.Cluster.metrics Epoch_round_failed;
        List.iter
          (fun p ->
            Kvstore.release_reservation p.session;
            abort_retry t p)
          winners
      in
      match peers with
      | [] -> commit_all ()
      | _ ->
          (* One grouped round: the leader ships the epoch's write log
             to one peer per remote region. Any region unreachable
             through the RPC retry schedule fails the whole epoch —
             group replication is all-or-nothing, which is what makes a
             WAN partition a goodput cliff for this protocol too. *)
          let ok, fail =
            Proto.join_or_fail (List.length peers) ~on_ok:commit_all
              ~on_fail:abort_all
          in
          List.iter
            (fun peer ->
              Transport.call cl ~src:leader ~dst:peer ~bytes
                ~work:Config.msg_handle_cost ~on_fail:fail ok ())
            peers));
  if t.parked <> [] then arm_timer t

and abort_retry t (p : pending) =
  let cl = t.cl in
  let engine = cl.Cluster.engine in
  record_outcome t p History.Aborted;
  Metrics.incr cl.Cluster.metrics Aborts;
  Trace.note_abort ~ts:(Engine.now engine) p.octx;
  let give_up reason =
    Metrics.incr cl.Cluster.metrics Deadline_giveups;
    Trace.note ~ts:(Engine.now engine) reason p.octx;
    Trace.finish_txn ~ts:(Engine.now engine) ~ok:false p.octx
  in
  match Config.enforced_deadline cl.Cluster.cfg ~start:p.start with
  | Some d when Engine.now engine >= d -> give_up "deadline-giveup"
  | _ when p.attempt >= max_attempts -> give_up "attempts-exhausted"
  | _ ->
      Engine.schedule engine
        ~delay:(Exec.retry_backoff cl ~attempts:p.attempt)
        (fun () ->
          execute t ~txn:p.txn ~start:p.start ~attempt:(p.attempt + 1)
            ~phases:p.phases ~octx:p.octx ~on_parked:(fun () -> ()))

(* Optimistic local execution: route to the node holding the most of
   the transaction's primaries, take a worker for setup + per-op CPU,
   record reads/writes in a fresh session, release the worker and park
   until the next boundary. No remote round trips — reads are served by
   the coordinator's local (possibly stale) snapshot; staleness is what
   boundary validation catches. [on_parked] fires at worker release,
   which is when the submitting client may proceed (mirroring the
   standard protocols' worker-bound closed loop). As in [Exec], the
   clock runs scheduling until the worker grant and execution from it
   to the worker's release. *)
and execute t ~txn ~start ~attempt ~phases ~octx ~on_parked =
  let cl = t.cl in
  let engine = cl.Cluster.engine in
  let coordinator = Exec.route_most_primaries cl txn in
  let actx =
    match octx with
    | None -> None
    | Some _ ->
        Trace.child ~node:coordinator ~phase:Execution
          ~name:(Printf.sprintf "attempt %d" attempt)
          ~ts:(Engine.now engine) octx
  in
  let requeue () =
    (* Shed at admission or the coordinator died under us: no session
       state to abort — pay a backoff and re-route. *)
    Trace.finish ~ts:(Engine.now engine) actx;
    Metrics.incr cl.Cluster.metrics Aborts;
    if attempt >= max_attempts then (
      Metrics.incr cl.Cluster.metrics Deadline_giveups;
      Trace.finish_txn ~ts:(Engine.now engine) ~ok:false octx;
      on_parked ())
    else
      Engine.schedule engine
        ~delay:(Config.rpc_timeout +. Rng.float cl.Cluster.rng 50.0)
        (fun () ->
          execute t ~txn ~start ~attempt:(attempt + 1) ~phases ~octx ~on_parked)
  in
  Exec.acquire_worker cl ~node:coordinator actx ~on_fail:requeue (fun lease ->
      Metrics.charge phases Scheduling ~now:(Engine.now engine);
      let session = Kvstore.begin_session cl.Cluster.store in
      let n_ops = Array.length txn.Txn.ops in
      let work =
        (Config.txn_setup_cost +. (float_of_int n_ops *. Config.local_op_cost))
        *. Cluster.work_scale cl coordinator
      in
      Engine.schedule engine ~delay:work (fun () ->
          Metrics.charge phases Execution ~now:(Engine.now engine);
          if not (Cluster.alive cl coordinator) then (
            Cluster.release_worker cl ~node:coordinator lease;
            requeue ())
          else (
            List.iter (Cluster.touch_partition cl) txn.Txn.parts;
            Array.iter (Exec.record_op session) txn.Txn.ops;
            Cluster.release_worker cl ~node:coordinator lease;
            Trace.finish ~ts:(Engine.now engine) actx;
            t.parked <- { txn; session; coordinator; start; attempt; phases; octx } :: t.parked;
            arm_timer t;
            on_parked ())))

let submit t txn ~on_done =
  let engine = t.cl.Cluster.engine in
  let octx =
    match t.cl.Cluster.tracer with
    | None -> None
    | Some tracer ->
        Trace.start_txn tracer ~ts:(Engine.now engine) ~txn_id:txn.Txn.id
  in
  execute t ~txn ~start:(Engine.now engine) ~attempt:1
    ~phases:(Metrics.phase_times ~since:(Engine.now engine) ())
    ~octx ~on_parked:on_done

let create cl =
  let t = { cl; parked = []; timer_armed = false; epochs = 0 } in
  Proto.make ~name:"EpochOCC"
    ~submit:(fun txn ~on_done -> submit t txn ~on_done)
    ~drain:(fun () -> close_epoch t)
    ()
