module Cluster = Lion_store.Cluster
module Config = Lion_store.Config
module History = Lion_store.History
module Engine = Lion_sim.Engine
module Runner = Lion_harness.Runner
module Proto = Lion_protocols.Proto

type outcome = {
  history : History.t;
  check : Checker.report;
  divergence : Divergence.report;
  liveness : Liveness.report;
  result : Runner.result;
  submitted : int;
  completed : int;
  min_availability : float;
  exhausted : bool;
  pending_events : int;
  final_time : float;
}

let passed o = Checker.serializable o.check && Divergence.clean o.divergence
let healthy o = passed o && Liveness.clean o.liveness

let pp_outcome fmt o =
  Format.fprintf fmt
    "@[<v>%d submitted, %d completed, %d commits, %d aborts, min availability %.3f, %d resyncs, end t=%.0fus@,%a%a@,%a@]"
    o.submitted o.completed o.result.commits o.result.aborts o.min_availability
    (Runner.count o.result Resync_apply)
    o.final_time Checker.pp_report o.check Divergence.pp_report o.divergence
    Liveness.pp_report o.liveness

(* Slack past the later of the horizon and the fault plan's last window
   before a drain counts as a slow quiesce. *)
let quiesce_slack = Engine.seconds 10.0

(* One {!Runner.run} in the quiesce shape: the checker, the divergence
   audit and the liveness audit are only meaningful once everything in
   flight has run to completion. *)
let run ?(seed = 1) ~clients ~duration ?(nemesis_at = 1.0)
    ?(max_events = Runner.drain_budget) ?(actions = []) ~cfg ~make ~gen ~nemesis () =
  let cfg =
    {
      cfg with
      Config.fault_plan =
        cfg.Config.fault_plan
        @ Nemesis.plan nemesis ~at:(Engine.seconds nemesis_at);
    }
  in
  let history = History.create () in
  let horizon = Engine.seconds duration in
  let cluster = ref None in
  let min_avail = ref 1.0 in
  (* Membership actions (join/decommission) are planner decisions, not
     fault-plan specs: absolute-time calls against the cluster. *)
  let setup cl =
    cluster := Some cl;
    let engine = cl.Cluster.engine in
    List.iter (fun (time, act) -> Engine.at engine ~time (fun () -> act cl)) actions;
    Runner.every engine ~first:(Engine.ms 50.0) ~period:(Engine.ms 100.0) ~until:horizon
      (fun () -> min_avail := Stdlib.min !min_avail (Cluster.availability cl))
  in
  (* The liveness audit's admission counts. *)
  let submitted = ref 0 in
  let completed = ref 0 in
  let make cl =
    let proto = make cl in
    let submit txn ~on_done =
      incr submitted;
      proto.Proto.submit txn ~on_done:(fun () ->
          incr completed;
          on_done ())
    in
    { proto with Proto.submit }
  in
  let result =
    Runner.run ~seed ~setup ~history ~cfg ~make ~gen
      { Runner.quick with clients; warmup = 0.0; duration; stop = Quiesce max_events }
  in
  let cl = Option.get !cluster in
  let engine = cl.Cluster.engine in
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
  {
    history;
    check;
    divergence;
    liveness;
    result;
    submitted = !submitted;
    completed = !completed;
    min_availability = !min_avail;
    exhausted = Engine.last_run_exhausted engine;
    pending_events = Engine.pending engine;
    final_time = Engine.now engine;
  }
