module Stats = Lion_kernel.Stats
module Timeseries = Lion_kernel.Timeseries
module Rng = Lion_kernel.Rng
module Pqueue = Lion_kernel.Pqueue
module Trace = Lion_trace.Trace

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

type counter =
  | Commits | Single_node_commits | Remastered_commits | Aborts | Timeouts | Retries
  | Drops | Sheds | Breaker_rejects | Breaker_opens | Breaker_half_opens | Budget_denials
  | Deadline_giveups | Deadline_misses | Stale_acks | Replica_purges | Remasters
  | Wan_messages | Wan_bytes | Lan_messages | Lan_bytes | Remaster_complete | Replica_adds
  | Batch_promotions | Remaster_stale_refuse | Remaster_abandon | Remaster_cancel
  | Parked_promote | Partition_parked | Election_promote | Phantom_purge | Rejoin_purge
  | Orphan_resync | Node_join | Node_decommission | Node_crash | Node_recover
  | Resync_stale | Resync_apply | Epoch_round_failed

(* A counter's fuzz coverage signal is a prefix on its name: [m] for a
   count the fuzzer watches, [b] for a code-path waypoint (an election,
   a phantom purge, a cancelled remaster ...), [none] for neither. *)
let m = "m:"
let b = "b:"
let none = ""

(* The counter table, in slot order: each counter once, with its name
   and its signal prefix. A signal is part of every fuzz signature, so
   a name or prefix stays fixed once a corpus or golden holds it.
   [all], [name], [signal] and the array's size come from it. [slot] is
   exhaustive, so a new constructor compiles only with a slot; the
   check below fails at start-up if the table's order disagrees with
   [slot], and a constructor left out of the table has a slot past the
   array, so its first [incr] raises. *)
let table =
  [| (Commits, "commits", none); (Single_node_commits, "single-node-commits", none);
     (Remastered_commits, "remastered-commits", none); (Aborts, "aborts", m);
     (Timeouts, "timeouts", m); (Retries, "retries", m); (Drops, "drops", m);
     (Sheds, "sheds", m); (Breaker_rejects, "breaker-rejects", m);
     (Breaker_opens, "breaker-opens", m); (Breaker_half_opens, "breaker-half-opens", m);
     (Budget_denials, "budget-denials", m); (Deadline_giveups, "deadline-giveups", m);
     (Deadline_misses, "deadline-misses", none); (Stale_acks, "stale-acks", m);
     (Replica_purges, "replica-purges", m); (Remasters, "remasters", m);
     (Wan_messages, "wan-messages", none); (Wan_bytes, "wan-bytes", none);
     (Lan_messages, "lan-messages", none); (Lan_bytes, "lan-bytes", none);
     (Remaster_complete, "remaster-complete", b); (Replica_adds, "replica-adds", none);
     (Batch_promotions, "batch-promotions", none);
     (Remaster_stale_refuse, "remaster-stale-refuse", b);
     (Remaster_abandon, "remaster-abandon", b); (Remaster_cancel, "remaster-cancel", b);
     (Parked_promote, "parked-promote", b); (Partition_parked, "partition-parked", b);
     (Election_promote, "election-promote", b); (Phantom_purge, "phantom-purge", b);
     (Rejoin_purge, "rejoin-purge", b); (Orphan_resync, "orphan-resync", b);
     (Node_join, "node-join", b); (Node_decommission, "node-decommission", b);
     (Node_crash, "node-crash", b); (Node_recover, "node-recover", b);
     (Resync_stale, "resync-stale", b); (Resync_apply, "resync-apply", b);
     (Epoch_round_failed, "epoch-round-failed", b) |]

let slot = function
  | Commits -> 0 | Single_node_commits -> 1 | Remastered_commits -> 2 | Aborts -> 3
  | Timeouts -> 4 | Retries -> 5 | Drops -> 6 | Sheds -> 7 | Breaker_rejects -> 8
  | Breaker_opens -> 9 | Breaker_half_opens -> 10 | Budget_denials -> 11
  | Deadline_giveups -> 12 | Deadline_misses -> 13 | Stale_acks -> 14
  | Replica_purges -> 15 | Remasters -> 16 | Wan_messages -> 17 | Wan_bytes -> 18
  | Lan_messages -> 19 | Lan_bytes -> 20 | Remaster_complete -> 21 | Replica_adds -> 22
  | Batch_promotions -> 23 | Remaster_stale_refuse -> 24 | Remaster_abandon -> 25
  | Remaster_cancel -> 26 | Parked_promote -> 27 | Partition_parked -> 28
  | Election_promote -> 29 | Phantom_purge -> 30 | Rejoin_purge -> 31 | Orphan_resync -> 32
  | Node_join -> 33 | Node_decommission -> 34 | Node_crash -> 35 | Node_recover -> 36
  | Resync_stale -> 37 | Resync_apply -> 38 | Epoch_round_failed -> 39

let () =
  Array.iteri
    (fun i (c, n, _) ->
      if slot c <> i then invalid_arg ("Metrics: counter table out of order at " ^ n))
    table

let all = Array.to_list (Array.map (fun (c, _, _) -> c) table)

let name c =
  let _, n, _ = table.(slot c) in
  n

let signal c =
  match table.(slot c) with _, _, "" -> None | _, n, prefix -> Some (prefix ^ n)

(* Commits waiting for their visibility time, in arrival order: commit
   [i]'s due time (as a [Pqueue] key), its flags ([late_bit] ...), its
   latency, its six phases at [6i .. 6i+5] and its two spans. [due_keys]
   holds each distinct due key whose flush event is still queued. The
   arrays are reused from boundary to boundary and double when full. *)
type deferred = {
  mutable n : int;
  mutable due : int array;
  mutable flags : int array;
  mutable lat : float array;
  mutable ph : float array;
  mutable roots : Trace.ctx option array;
  mutable spans : Trace.ctx option array;
  mutable due_keys : int array;
  mutable n_keys : int;
}

let late_bit = 1
let single_bit = 2
let remastered_bit = 4

type t = {
  engine : Engine.t;
  deferred : deferred;
  counts : int array;  (** indexed by [slot] *)
  latency : Stats.Reservoir.t;
  phase_time : float array;
  series : Timeseries.t;
  good_series : Timeseries.t;
  avail_series : Timeseries.t;
}

let create ?(seed = 42) engine =
  {
    engine;
    counts = Array.make (Array.length table) 0;
    latency = Stats.Reservoir.create (Rng.create seed);
    phase_time = Array.make 6 0.0;
    series = Timeseries.create ~interval:(Engine.seconds 1.0);
    good_series = Timeseries.create ~interval:(Engine.seconds 1.0);
    avail_series = Timeseries.create ~interval:(Engine.seconds 1.0);
    deferred =
      {
        n = 0;
        due = Array.make 16 0;
        flags = Array.make 16 0;
        lat = Array.make 16 0.0;
        ph = Array.make (6 * 16) 0.0;
        roots = Array.make 16 None;
        spans = Array.make 16 None;
        due_keys = Array.make 4 0;
        n_keys = 0;
      };
  }

let add t c n =
  let i = slot c in
  t.counts.(i) <- t.counts.(i) + n

let incr t c = add t c 1
let count t c = t.counts.(slot c)

type snapshot = int array

let snapshot t = Array.copy t.counts
let get s c = s.(slot c)
let completed_remasters s = get s Remaster_complete + get s Batch_promotions

(* All floats, so the record is stored flat: an attempt fills one in
   place without boxing a duration per phase. *)
type phase_times = {
  mutable execution : float;
  mutable prepare : float;
  mutable commit : float;
  mutable remaster : float;
  mutable scheduling : float;
  mutable replication : float;
}

let phase_times ?(execution = 0.0) ?(prepare = 0.0) ?(commit = 0.0) ?(remaster = 0.0)
    ?(scheduling = 0.0) ?(replication = 0.0) () =
  { execution; prepare; commit; remaster; scheduling; replication }

(* Each phase adds its own slot exactly once per commit. A phase a
   protocol does not report adds 0.0, which leaves a sum that started
   at 0.0 unchanged, so the totals match adding only the reported
   phases. *)
let add_phases t p =
  let a = t.phase_time in
  a.(0) <- a.(0) +. p.execution;
  a.(1) <- a.(1) +. p.prepare;
  a.(2) <- a.(2) +. p.commit;
  a.(3) <- a.(3) +. p.remaster;
  a.(4) <- a.(4) +. p.scheduling;
  a.(5) <- a.(5) +. p.replication

(* Everything [record_commit] records but the phases. *)
let record t ~late ~latency ~single_node ~remastered =
  incr t Commits;
  if single_node then incr t Single_node_commits;
  if remastered then incr t Remastered_commits;
  if late then incr t Deadline_misses;
  Stats.Reservoir.add t.latency latency;
  Timeseries.incr t.series ~time:(Engine.now t.engine);
  if not late then Timeseries.incr t.good_series ~time:(Engine.now t.engine)

let record_commit ?(late = false) t ~latency ~single_node ~remastered ~phases =
  record t ~late ~latency ~single_node ~remastered;
  add_phases t phases

(* Replay commit [i]: close its wait span, record it as [record_commit]
   would (phases in the same order, so the sums are the same floats),
   close its trace. *)
let replay t d i =
  let ts = Engine.now t.engine in
  (match d.spans.(i) with None -> () | Some _ as span -> Trace.finish ~ts span);
  let f = d.flags.(i) in
  record t ~late:(f land late_bit <> 0) ~latency:d.lat.(i)
    ~single_node:(f land single_bit <> 0) ~remastered:(f land remastered_bit <> 0);
  let a = t.phase_time and p = 6 * i in
  for j = 0 to 5 do
    a.(j) <- a.(j) +. d.ph.(p + j)
  done;
  match d.roots.(i) with None -> () | Some _ as root -> Trace.finish_txn ~ts ~ok:true root

let move d ~src ~dst =
  d.due.(dst) <- d.due.(src);
  d.flags.(dst) <- d.flags.(src);
  d.lat.(dst) <- d.lat.(src);
  Array.blit d.ph (6 * src) d.ph (6 * dst) 6;
  d.roots.(dst) <- d.roots.(src);
  d.spans.(dst) <- d.spans.(src)

(* The flush event of the due keys up to now (one, unless the engine
   clamped a past-dated time): replay their commits in arrival order
   and keep the rest, in order. *)
let flush t =
  let d = t.deferred in
  let now = Pqueue.key_of_time (Engine.now t.engine) in
  let kept = ref 0 in
  for j = 0 to d.n_keys - 1 do
    let k = d.due_keys.(j) in
    if k > now then (
      d.due_keys.(!kept) <- k;
      Stdlib.incr kept)
  done;
  d.n_keys <- !kept;
  kept := 0;
  for i = 0 to d.n - 1 do
    if d.due.(i) <= now then replay t d i
    else (
      if !kept < i then move d ~src:i ~dst:!kept;
      Stdlib.incr kept)
  done;
  (* Drop the replayed commits' spans so they are not held alive. *)
  Array.fill d.roots !kept (d.n - !kept) None;
  Array.fill d.spans !kept (d.n - !kept) None;
  d.n <- !kept

let grow d =
  let extend a fill = Array.append a (Array.make (Array.length a) fill) in
  d.due <- extend d.due 0;
  d.flags <- extend d.flags 0;
  d.lat <- extend d.lat 0.0;
  d.ph <- extend d.ph 0.0;
  d.roots <- extend d.roots None;
  d.spans <- extend d.spans None

let rec has_key d k j = j < d.n_keys && (d.due_keys.(j) = k || has_key d k (j + 1))

let defer_commit t ~delay ~late ~latency ~single_node ~remastered ~phases ~root ~span =
  let d = t.deferred in
  let time = Engine.now t.engine +. delay in
  let key = Pqueue.key_of_time time in
  if not (has_key d key 0) then (
    if d.n_keys = Array.length d.due_keys then
      d.due_keys <- Array.append d.due_keys (Array.make d.n_keys 0);
    d.due_keys.(d.n_keys) <- key;
    d.n_keys <- d.n_keys + 1;
    Engine.at_apply t.engine ~time flush t);
  if d.n = Array.length d.due then grow d;
  let i = d.n in
  d.due.(i) <- key;
  d.flags.(i) <-
    (if late then late_bit else 0)
    lor (if single_node then single_bit else 0)
    lor if remastered then remastered_bit else 0;
  d.lat.(i) <- latency;
  let p = 6 * i in
  d.ph.(p) <- phases.execution;
  d.ph.(p + 1) <- phases.prepare;
  d.ph.(p + 2) <- phases.commit;
  d.ph.(p + 3) <- phases.remaster;
  d.ph.(p + 4) <- phases.scheduling;
  d.ph.(p + 5) <- phases.replication;
  d.roots.(i) <- root;
  d.spans.(i) <- span;
  d.n <- i + 1

(* Past-dated schedules the engine clamped to [now]: each one is a
   scheduling bug somewhere upstream (a negative delay, an absolute
   time computed from a stale clock). Surfaced here so experiment
   summaries and tests can assert the count stays where they expect it
   instead of the clamp silently rewriting history. *)
let schedule_clamps t = Engine.clamped_schedules t.engine

let note_availability t ~frac =
  Timeseries.add t.avail_series ~time:(Engine.now t.engine) frac

let availability_series t = Timeseries.to_array t.avail_series

let throughput t ~duration =
  if duration <= 0.0 then 0.0 else float_of_int (count t Commits) /. (duration /. 1e6)

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

(* Commits still waiting for their visibility time are not part of the
   closed window: they stay deferred and are recorded when they land. *)
let reset_window t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  Array.fill t.phase_time 0 6 0.0;
  Stats.Reservoir.reset t.latency
