module Engine = Lion_sim.Engine
module Timeseries = Lion_kernel.Timeseries

type session = { version : int; term : int; epoch : int }

type t = {
  engine : Engine.t;
  interval : float;
  sync_delay : float;
  logs : Timeseries.t array; (* appends bucketed by epoch *)
  totals : int array;
  mutable grand_total : int;
  (* Per-replica apply progress, flat over partition × node slot
     ([index]): the index of the last log record the replica has
     applied, 0 if never stamped. The authoritative length is
     [totals]; the divergence audit compares the two at quiescence. *)
  slots : int;
  applied_wm : int array;
  (* Ground truth behind [applied_wm]: what the replica's storage
     actually holds. The two differ only when a stale stream stamped
     the believed watermark of a node that lost its state in between —
     the divergence the stale-session audit exists to catch
     (docs/MEMBERSHIP.md). A row exists only for replicas seeded at
     startup or installed by a full-state transfer; [no_row] marks the
     others, distinct from a row holding 0. *)
  durable_wm : int array;
}

let no_row = min_int

let create ?sync_delay ~interval ~partitions ~slots engine =
  assert (interval > 0.0 && slots > 0);
  {
    engine;
    interval;
    sync_delay = (match sync_delay with Some d -> d | None -> 2.0 *. interval);
    logs = Array.init partitions (fun _ -> Timeseries.create ~interval);
    totals = Array.make partitions 0;
    grand_total = 0;
    slots;
    applied_wm = Array.make (partitions * slots) 0;
    durable_wm = Array.make (partitions * slots) no_row;
  }

let append t ~part =
  Timeseries.incr t.logs.(part) ~time:(Engine.now t.engine);
  t.totals.(part) <- t.totals.(part) + 1;
  t.grand_total <- t.grand_total + 1

let appends t ~part = t.totals.(part)

let lag t ~part =
  let now = Engine.now t.engine in
  let hi = int_of_float (Float.floor (now /. t.interval)) in
  let lo = int_of_float (Float.floor ((now -. t.sync_delay) /. t.interval)) in
  int_of_float (Timeseries.sum_range t.logs.(part) lo hi)

let total_appends t = t.grand_total
let sync_delay t = t.sync_delay

let index t ~part ~node =
  if node < 0 || node >= t.slots then
    invalid_arg (Printf.sprintf "Replication: node %d outside %d slots" node t.slots);
  (part * t.slots) + node

let applied t ~part ~node = t.applied_wm.(index t ~part ~node)

let durable t ~part ~node =
  let d = t.durable_wm.(index t ~part ~node) in
  if d = no_row then 0 else d

let raise_applied t i upto = if upto > t.applied_wm.(i) then t.applied_wm.(i) <- upto

let set_applied t ~part ~node ~upto =
  let i = index t ~part ~node in
  raise_applied t i upto;
  (* A full-state transfer is ground truth: it (re)creates the durable
     row even when the believed watermark was already ahead of it. *)
  let d = t.durable_wm.(i) in
  if d = no_row || upto > d then t.durable_wm.(i) <- upto

let seed_replica t ~part ~node =
  let i = index t ~part ~node in
  if t.durable_wm.(i) = no_row then t.durable_wm.(i) <- 0

let ack_stream t ~part ~node ~upto ~stale =
  let i = index t ~part ~node in
  raise_applied t i upto;
  (* An incremental stream can only extend storage that already holds
     the prefix, so the durable watermark moves only where a row exists
     — and never on a stale stream, whose bytes belong to a state the
     destination lost when it left the membership. *)
  let d = t.durable_wm.(i) in
  if (not stale) && d <> no_row && upto > d then t.durable_wm.(i) <- upto

let forget_applied t ~part ~node =
  let i = index t ~part ~node in
  t.applied_wm.(i) <- 0;
  t.durable_wm.(i) <- no_row
