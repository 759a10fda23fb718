module Cluster = Lion_store.Cluster
module Transport = Lion_store.Transport
module Engine = Lion_sim.Engine
module Fault = Lion_sim.Fault
module Overload = Lion_sim.Overload

type finding =
  | Stuck_txns of { submitted : int; completed : int }
  | Event_budget_exhausted of { pending : int }
  | Breaker_pinned of { node : int }
  | Remaster_wedged of { inflight : int }
  | Partition_parked of { part : int }
  | Slow_quiesce of { finished : float; bound : float }

type report = { findings : finding list }

let clean r = r.findings = []

let finding_name = function
  | Stuck_txns _ -> "stuck-txns"
  | Event_budget_exhausted _ -> "event-budget-exhausted"
  | Breaker_pinned _ -> "breaker-pinned"
  | Remaster_wedged _ -> "remaster-wedged"
  | Partition_parked _ -> "partition-parked"
  | Slow_quiesce _ -> "slow-quiesce"

let pp_finding fmt = function
  | Stuck_txns { submitted; completed } ->
      Format.fprintf fmt "stuck-txns: %d of %d submitted never resolved"
        (submitted - completed) submitted
  | Event_budget_exhausted { pending } ->
      Format.fprintf fmt
        "event-budget-exhausted: drain stopped on max_events with %d pending"
        pending
  | Breaker_pinned { node } ->
      Format.fprintf fmt "breaker-pinned: breaker to live node %d still open"
        node
  | Remaster_wedged { inflight } ->
      Format.fprintf fmt "remaster-wedged: %d leader transfers still in flight"
        inflight
  | Partition_parked { part } ->
      Format.fprintf fmt
        "partition-parked: partition %d has no live primary at quiescence" part
  | Slow_quiesce { finished; bound } ->
      Format.fprintf fmt
        "slow-quiesce: drained at t=%.0fus, past the %.0fus bound" finished
        bound

let pp_report fmt r =
  match r.findings with
  | [] -> Format.fprintf fmt "liveness: clean"
  | fs ->
      Format.fprintf fmt "@[<v>liveness: %d finding(s)@,%a@]" (List.length fs)
        (Format.pp_print_list pp_finding)
        fs

let plan_horizon plan =
  List.fold_left
    (fun acc spec ->
      let upto =
        match spec with
        | Fault.Crash { at; recover_at; _ } ->
            Option.value recover_at ~default:at
        | Fault.Partition { until; _ }
        | Fault.Drop { until; _ }
        | Fault.Jitter { until; _ }
        | Fault.Straggler { until; _ }
        | Fault.Delay { until; _ } ->
            until
      in
      Stdlib.max acc upto)
    0.0 plan

let audit ?quiesce_bound ~cluster:cl ~submitted ~completed () =
  let engine = cl.Cluster.engine in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  if Engine.last_run_exhausted engine then
    add (Event_budget_exhausted { pending = Engine.pending engine });
  if completed < submitted then add (Stuck_txns { submitted; completed });
  (* Breakers: only a breaker pinned open toward a node that is alive
     and a member indicts the control plane — one still open toward a
     corpse merely remembers the corpse. [breaker_state] ticks the
     breaker's clock, so an open whose cooldown elapsed before the last
     event reads [Half_open] and is not reported: it would admit a
     probe the moment traffic returned. *)
  List.iter
    (fun node ->
      if Transport.breaker_state cl node = Overload.Breaker.Open then
        add (Breaker_pinned { node }))
    (Cluster.alive_nodes cl);
  let inflight = Cluster.remasters_inflight cl in
  if inflight > 0 then add (Remaster_wedged { inflight });
  List.iter
    (fun part -> add (Partition_parked { part }))
    (Cluster.parked_partitions cl);
  (match quiesce_bound with
  | Some bound when not (Engine.last_run_exhausted engine) ->
      let finished = Engine.now engine in
      if finished > bound then add (Slow_quiesce { finished; bound })
  | _ -> ());
  { findings = List.rev !findings }
