module Pqueue = Lion_kernel.Pqueue

(* An event is usually a thunk, but the hot paths (network delivery,
   server completions) dispatch through [Apply]: a pre-allocated
   handler applied to a pooled record, so scheduling a message costs
   one 3-word variant cell instead of a fresh closure. *)
type ev = Thunk of (unit -> unit) | Apply : ('a -> unit) * 'a -> ev

(* The clock is stored in key space (an immediate int), not as a float
   field: an int field costs nothing to update per event, while a float
   field in this mixed record would be a pointer to a box reallocated
   on every tick. [now] converts on demand. *)
type t = {
  mutable clock_key : int;
  events : ev Pqueue.t;
  mutable processed : int; (* events executed since [create] *)
  mutable clamped : int; (* past-dated schedules clamped to [now] *)
  mutable exhausted : bool; (* last [run_all] hit its event budget *)
}

let create () =
  {
    clock_key = Pqueue.key_of_time 0.0;
    events = Pqueue.create ();
    processed = 0;
    clamped = 0;
    exhausted = false;
  }

let[@inline] now t = Pqueue.time_of_key t.clock_key

(* Scheduling in the past is always a bug somewhere upstream; the clamp
   keeps time monotone (as it always has) but is counted now, so
   [Metrics] can surface it instead of silently absorbing it. Because
   [Pqueue.key_of_time] is monotone and injective, clamping in key space is
   exactly the float clamp. *)
let[@inline] push_key_at t key e =
  let key =
    if key < t.clock_key then (
      t.clamped <- t.clamped + 1;
      t.clock_key)
    else key
  in
  Pqueue.push_key t.events key e

let at t ~time f = push_key_at t (Pqueue.key_of_time time) (Thunk f)

let schedule t ~delay f =
  let delay =
    if delay < 0.0 then (
      t.clamped <- t.clamped + 1;
      0.0)
    else delay
  in
  push_key_at t (Pqueue.key_of_time (now t +. delay)) (Thunk f)

let at_apply t ~time f x = push_key_at t (Pqueue.key_of_time time) (Apply (f, x))

let schedule_apply t ~delay f x =
  let delay =
    if delay < 0.0 then (
      t.clamped <- t.clamped + 1;
      0.0)
    else delay
  in
  push_key_at t (Pqueue.key_of_time (now t +. delay)) (Apply (f, x))

let[@inline] exec t e =
  t.processed <- t.processed + 1;
  match e with Thunk f -> f () | Apply (f, x) -> f x

let run_until t deadline =
  (* A negative deadline can neither run events (times are >= 0) nor
     advance the clock, and its key-space image would be garbage — so
     it is a no-op, as it always was. *)
  if deadline >= 0.0 then (
    let dk = Pqueue.key_of_time deadline in
    let q = t.events in
    let continue = ref true in
    while !continue do
      if Pqueue.is_empty q then continue := false
      else (
        let k = Pqueue.min_key q in
        if k <= dk then (
          t.clock_key <- k;
          exec t (Pqueue.pop_min q))
        else continue := false)
    done;
    if dk > t.clock_key then t.clock_key <- dk)

let default_max_events = 100_000_000

(* Draining to quiescence with a budget: exhausting the budget with
   events still pending is a runaway event loop, not a clean finish —
   flag it (and say so once on stderr) instead of returning silently. *)
let run_all t ?(max_events = default_max_events) () =
  t.exhausted <- false;
  let q = t.events in
  let budget = ref max_events in
  while !budget > 0 && not (Pqueue.is_empty q) do
    t.clock_key <- Pqueue.min_key q;
    exec t (Pqueue.pop_min q);
    decr budget
  done;
  if not (Pqueue.is_empty q) then (
    t.exhausted <- true;
    Printf.eprintf
      "[lion.engine] run_all: max_events=%d exhausted with %d events still \
       pending at t=%.0fus — runaway event loop?\n\
       %!"
      max_events (Pqueue.length q)
      (Pqueue.time_of_key t.clock_key))

let pending t = Pqueue.length t.events
let events_processed t = t.processed
let clamped_schedules t = t.clamped
let last_run_exhausted t = t.exhausted
let seconds s = s *. 1e6
let ms x = x *. 1e3
