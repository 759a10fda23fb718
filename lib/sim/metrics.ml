module Stats = Lion_kernel.Stats
module Timeseries = Lion_kernel.Timeseries
module Rng = Lion_kernel.Rng

type phase = Execution | Prepare | Commit | Remaster | Scheduling | Replication

let phase_name = function
  | Execution -> "execution"
  | Prepare -> "prepare"
  | Commit -> "commit"
  | Remaster -> "remaster"
  | Scheduling -> "scheduling"
  | Replication -> "replication"

let all_phases = [ Execution; Prepare; Commit; Remaster; Scheduling; Replication ]

let phase_index = function
  | Execution -> 0
  | Prepare -> 1
  | Commit -> 2
  | Remaster -> 3
  | Scheduling -> 4
  | Replication -> 5

type t = {
  engine : Engine.t;
  mutable commits : int;
  mutable aborts : int;
  mutable single_node : int;
  mutable remastered : int;
  latency : Stats.Reservoir.t;
  phase_time : float array;
  series : Timeseries.t;
  good_series : Timeseries.t;
  mutable timeouts : int;
  mutable retries : int;
  mutable drops : int;
  mutable sheds : int;
  mutable breaker_rejects : int;
  mutable breaker_opens : int;
  mutable breaker_half_opens : int;
  mutable budget_denials : int;
  mutable deadline_giveups : int;
  mutable deadline_misses : int;
  mutable stale_acks : int;
  mutable replica_purges : int;
  mutable remaster_begins : int;
  mutable remasters_inflight : int;
  (* Region-link accounting, bumped by [Network.send] only when a
     region topology is installed: every message is either intra-region
     (LAN) or cross-region (WAN). Region-free runs leave all four at
     0. *)
  mutable wan_msgs : int;
  mutable wan_bytes : int;
  mutable lan_msgs : int;
  mutable lan_bytes : int;
  (* Code-path beacons: named control-flow waypoints (elections,
     purges, cancelled remasters, anti-entropy rounds …) recorded as
     bare counters. Pure bookkeeping — no engine events, no RNG — so
     lighting one up never perturbs a run; the fault-schedule fuzzer
     uses the set of lit beacons as its coverage signal
     (docs/FUZZING.md). *)
  beacons : (string, int) Hashtbl.t;
  avail_series : Timeseries.t;
}

let create ?(seed = 42) engine =
  {
    engine;
    commits = 0;
    aborts = 0;
    single_node = 0;
    remastered = 0;
    latency = Stats.Reservoir.create (Rng.create seed);
    phase_time = Array.make 6 0.0;
    series = Timeseries.create ~interval:(Engine.seconds 1.0);
    good_series = Timeseries.create ~interval:(Engine.seconds 1.0);
    timeouts = 0;
    retries = 0;
    drops = 0;
    sheds = 0;
    breaker_rejects = 0;
    breaker_opens = 0;
    breaker_half_opens = 0;
    budget_denials = 0;
    deadline_giveups = 0;
    deadline_misses = 0;
    stale_acks = 0;
    replica_purges = 0;
    remaster_begins = 0;
    remasters_inflight = 0;
    wan_msgs = 0;
    wan_bytes = 0;
    lan_msgs = 0;
    lan_bytes = 0;
    beacons = Hashtbl.create 32;
    avail_series = Timeseries.create ~interval:(Engine.seconds 1.0);
  }

(* Recursive rather than [List.iter f]: the commit path runs once per
   transaction, and the iterator closure capturing [t] was a per-commit
   allocation for nothing. *)
let rec add_phases t = function
  | [] -> ()
  | (p, d) :: rest ->
      t.phase_time.(phase_index p) <- t.phase_time.(phase_index p) +. d;
      add_phases t rest

let record_commit ?(late = false) t ~latency ~single_node ~remastered ~phases =
  t.commits <- t.commits + 1;
  if single_node then t.single_node <- t.single_node + 1;
  if remastered then t.remastered <- t.remastered + 1;
  Stats.Reservoir.add t.latency latency;
  add_phases t phases;
  Timeseries.incr t.series ~time:(Engine.now t.engine);
  if not late then Timeseries.incr t.good_series ~time:(Engine.now t.engine)

let record_abort t = t.aborts <- t.aborts + 1
let record_timeout t = t.timeouts <- t.timeouts + 1
let record_retry t = t.retries <- t.retries + 1
let record_drop t = t.drops <- t.drops + 1
let record_shed t = t.sheds <- t.sheds + 1
let record_breaker_reject t = t.breaker_rejects <- t.breaker_rejects + 1
let record_breaker_open t = t.breaker_opens <- t.breaker_opens + 1

let record_breaker_half_open t =
  t.breaker_half_opens <- t.breaker_half_opens + 1

let record_budget_denial t = t.budget_denials <- t.budget_denials + 1
let record_deadline_giveup t = t.deadline_giveups <- t.deadline_giveups + 1
let record_deadline_miss t = t.deadline_misses <- t.deadline_misses + 1
let record_stale_ack t = t.stale_acks <- t.stale_acks + 1
let record_replica_purge t = t.replica_purges <- t.replica_purges + 1

(* The in-flight remaster gauge pairs a begin with exactly one end on
   every exit path (completion, stale refusal, cancellation); at
   quiescence it must read 0, which the liveness auditor asserts. *)
let record_remaster_begin t =
  t.remaster_begins <- t.remaster_begins + 1;
  t.remasters_inflight <- t.remasters_inflight + 1

let record_remaster_end t = t.remasters_inflight <- t.remasters_inflight - 1

let record_link_msg t ~cross ~bytes =
  if cross then (
    t.wan_msgs <- t.wan_msgs + 1;
    t.wan_bytes <- t.wan_bytes + bytes)
  else (
    t.lan_msgs <- t.lan_msgs + 1;
    t.lan_bytes <- t.lan_bytes + bytes)

let beacon t name =
  match Hashtbl.find_opt t.beacons name with
  | Some n -> Hashtbl.replace t.beacons name (n + 1)
  | None -> Hashtbl.replace t.beacons name 1

let beacons t =
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) t.beacons []
  |> List.sort compare
let timeouts t = t.timeouts
let retries t = t.retries
let drops t = t.drops
let sheds t = t.sheds
let breaker_rejects t = t.breaker_rejects
let breaker_opens t = t.breaker_opens
let breaker_half_opens t = t.breaker_half_opens
let budget_denials t = t.budget_denials
let deadline_giveups t = t.deadline_giveups
let deadline_misses t = t.deadline_misses
let stale_ack_rejections t = t.stale_acks
let replica_purges t = t.replica_purges
let remaster_begins t = t.remaster_begins
let remasters_inflight t = t.remasters_inflight
let wan_messages t = t.wan_msgs
let wan_bytes t = t.wan_bytes
let lan_messages t = t.lan_msgs
let lan_bytes t = t.lan_bytes

(* Past-dated schedules the engine clamped to [now]: each one is a
   scheduling bug somewhere upstream (a negative delay, an absolute
   time computed from a stale clock). Surfaced here so experiment
   summaries and tests can assert the count stays where they expect it
   instead of the clamp silently rewriting history. *)
let schedule_clamps t = Engine.clamped_schedules t.engine

let note_availability t ~frac =
  Timeseries.add t.avail_series ~time:(Engine.now t.engine) frac

let availability_series t = Timeseries.to_array t.avail_series
let commits t = t.commits
let aborts t = t.aborts
let single_node_commits t = t.single_node
let remastered_commits t = t.remastered

let throughput t ~duration =
  if duration <= 0.0 then 0.0 else float_of_int t.commits /. (duration /. 1e6)

let throughput_series t = Timeseries.to_array t.series
let goodput_series t = Timeseries.to_array t.good_series
(* An empty window — e.g. right after [reset_window], before any commit
   lands — must read as 0, never NaN or an out-of-bounds access,
   whatever the reservoir's internals do. *)
let latency_percentile t p =
  if Stats.Reservoir.count t.latency = 0 then 0.0
  else Stats.Reservoir.percentile t.latency p

let mean_latency t =
  if Stats.Reservoir.count t.latency = 0 then 0.0
  else Stats.Reservoir.mean t.latency

let phase_fraction t phase =
  let total = Array.fold_left ( +. ) 0.0 t.phase_time in
  if total <= 0.0 then 0.0 else t.phase_time.(phase_index phase) /. total

let reset_window t =
  t.commits <- 0;
  t.aborts <- 0;
  t.single_node <- 0;
  t.remastered <- 0;
  t.timeouts <- 0;
  t.retries <- 0;
  t.drops <- 0;
  t.sheds <- 0;
  t.breaker_rejects <- 0;
  t.breaker_opens <- 0;
  t.breaker_half_opens <- 0;
  t.budget_denials <- 0;
  t.deadline_giveups <- 0;
  t.deadline_misses <- 0;
  t.stale_acks <- 0;
  t.replica_purges <- 0;
  t.remaster_begins <- 0;
  t.wan_msgs <- 0;
  t.wan_bytes <- 0;
  t.lan_msgs <- 0;
  t.lan_bytes <- 0;
  (* The in-flight gauge is live state, not a window counter: a
     remaster spanning the window boundary still ends exactly once. *)
  Hashtbl.reset t.beacons;
  Array.fill t.phase_time 0 6 0.0;
  Stats.Reservoir.reset t.latency
