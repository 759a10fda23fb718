module Cluster = Lion_store.Cluster
module Config = Lion_store.Config
module History = Lion_store.History
module Engine = Lion_sim.Engine
module Metrics = Lion_sim.Metrics
module Fault = Lion_sim.Fault
module Proto = Lion_protocols.Proto
module Txn = Lion_workload.Txn

type outcome = {
  history : History.t;
  check : Checker.report;
  divergence : Divergence.report;
  liveness : Liveness.report;
  submitted : int;
  completed : int;
  commits : int;
  aborts : int;
  min_availability : float;
  resyncs : int;
  stale_rejections : int;
  replica_purges : int;
  exhausted : bool;
  pending_events : int;
  final_time : float;
}

let passed o = Checker.serializable o.check && Divergence.clean o.divergence
let healthy o = passed o && Liveness.clean o.liveness

let pp_outcome fmt o =
  Format.fprintf fmt
    "@[<v>%d submitted, %d completed, %d commits, %d aborts, min availability %.3f, %d resyncs, end t=%.0fus@,%a%a@,%a@]"
    o.submitted o.completed o.commits o.aborts o.min_availability o.resyncs
    o.final_time Checker.pp_report o.check Divergence.pp_report o.divergence
    Liveness.pp_report o.liveness

(* Slack past the later of the horizon and the fault plan's last window
   before a drain counts as a slow quiesce. *)
let quiesce_slack = Engine.seconds 10.0

(* Unlike the throughput harness's closed loop — which reschedules
   clients forever and so never quiesces — audit clients stop issuing
   at the horizon. Everything in flight then runs to completion
   ([Engine.run_all]): retries resolve, elections finish, log ships
   land, anti-entropy repairs terminate. Only at that point are the
   checker, the divergence audit and the liveness audit meaningful. *)
let run ?(seed = 1) ?(clients = 8) ?(duration = 4.0) ?(nemesis_at = 1.0)
    ?tracer ?(max_events = 50_000_000) ?(actions = []) ?(observe = fun _ -> ()) ~cfg ~make
    ~gen ~nemesis () =
  let cfg =
    {
      cfg with
      Config.fault_plan =
        cfg.Config.fault_plan
        @ Nemesis.plan nemesis ~at:(Engine.seconds nemesis_at);
    }
  in
  let history = History.create () in
  let cl = Cluster.create ~seed ?tracer ~history cfg in
  let proto = make cl in
  let engine = cl.Cluster.engine in
  (* Membership actions (join/decommission) are not fault-plan specs:
     they are planner decisions, scheduled here as absolute-time calls
     against the cluster. *)
  List.iter
    (fun (time, act) -> Engine.at engine ~time (fun () -> act cl))
    actions;
  let horizon = Engine.seconds duration in
  let submitted = ref 0 in
  let completed = ref 0 in
  let rec client_loop () =
    if Engine.now engine < horizon then (
      let txn = gen ~time:(Engine.now engine) in
      incr submitted;
      proto.Proto.submit txn ~on_done:(fun () ->
          incr completed;
          Engine.schedule engine ~delay:0.0 client_loop))
  in
  for _ = 1 to clients do
    client_loop ()
  done;
  let tick_us = Engine.seconds 1.0 in
  let rec ticker () =
    Engine.schedule engine ~delay:tick_us (fun () ->
        if Engine.now engine < horizon then (
          proto.Proto.tick ();
          ticker ()))
  in
  ticker ();
  let min_avail = ref 1.0 in
  let rec avail_loop () =
    if Engine.now engine < horizon then (
      min_avail := Stdlib.min !min_avail (Cluster.availability cl);
      Engine.schedule engine ~delay:(Engine.ms 100.0) avail_loop)
  in
  Engine.schedule engine ~delay:(Engine.ms 50.0) avail_loop;
  Engine.run_until engine horizon;
  proto.Proto.drain ();
  Engine.run_all engine ~max_events ();
  let metrics = cl.Cluster.metrics in
  let check = Checker.check (History.events history) in
  let divergence = Divergence.audit ~history cl in
  (* A healthy drain ends within the last scheduled disturbance plus a
     generous slack; anything later means some loop kept the queue
     alive long after the cluster should have settled. *)
  let quiesce_bound =
    Stdlib.max horizon (Liveness.plan_horizon cfg.Config.fault_plan)
    +. quiesce_slack
  in
  let liveness =
    Liveness.audit ~quiesce_bound ~cluster:cl ~submitted:!submitted
      ~completed:!completed ()
  in
  observe cl;
  {
    history;
    check;
    divergence;
    liveness;
    submitted = !submitted;
    completed = !completed;
    commits = Metrics.commits metrics;
    aborts = Metrics.aborts metrics;
    min_availability = !min_avail;
    resyncs = cl.Cluster.resync_count;
    stale_rejections = Metrics.stale_ack_rejections metrics;
    replica_purges = Metrics.replica_purges metrics;
    exhausted = Engine.last_run_exhausted engine;
    pending_events = Engine.pending engine;
    final_time = Engine.now engine;
  }
