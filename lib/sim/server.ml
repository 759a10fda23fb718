type lease = { acquired_at : float; mutable released : bool }

(* Pooled completion record for [submit]: the work-done event is
   dispatched through [Engine.schedule_apply] with one of these instead
   of a closure capturing the lease — recycled on completion, intrusive
   free list, no allocation per completion. *)
type job = { mutable job_lease : lease; mutable job_k : unit -> unit; mutable job_next : job }

let nop () = ()
let nil_lease = { acquired_at = 0.0; released = true }
let rec nil_job = { job_lease = nil_lease; job_k = nop; job_next = nil_job }

type shed_policy =
  | Reject_newest
  | Codel of { target : float; interval : float }

type prio = Normal | High

type waiter = {
  k : lease -> unit;
  on_shed : (unit -> unit) option;
  enq_at : float;
}

type t = {
  engine : Engine.t;
  cap : int;
  queue_cap : int; (* 0 = unbounded *)
  policy : shed_policy;
  notify_shed : unit -> unit;
  mutable busy : int;
  waiting : waiter Queue.t;
  waiting_hi : waiter Queue.t; (* control traffic: never shed by policy *)
  mutable busy_time : float;
  mutable completed : int;
  mutable alive : bool;
  mutable queue_wait : float;
  mutable max_queue : int;
  (* CoDel bookkeeping: when the head's sojourn first exceeded the
     target (None while at/under target or the queue is empty). *)
  mutable above_since : float option;
  mutable free_jobs : job;
  mutable finish : job -> unit; (* tied to [t] once, in [create] *)
}

let capacity t = t.cap
let alive t = t.alive

let shed t w =
  t.notify_shed ();
  match w.on_shed with None -> () | Some f -> f ()

let grant t w =
  t.busy <- t.busy + 1;
  let now = Engine.now t.engine in
  t.queue_wait <- t.queue_wait +. (now -. w.enq_at);
  let lease = { acquired_at = now; released = false } in
  w.k lease

(* [grant] of a request that never queued: its wait is exactly 0, and
   adding 0 leaves [queue_wait] unchanged, so no waiter is built. *)
let grant_idle t =
  t.busy <- t.busy + 1;
  { acquired_at = Engine.now t.engine; released = false }

(* Next waiter to grant: control traffic first, then the normal queue
   filtered through the shed policy. The CoDel-style rule sheds the
   head once the queue has been continuously above the target sojourn
   for a full interval — a transient spike drains normally, sustained
   standing queues get cut. *)
let rec next_waiter t =
  match Queue.take_opt t.waiting_hi with
  | Some w -> Some w
  | None -> (
      match Queue.peek_opt t.waiting with
      | None ->
          t.above_since <- None;
          None
      | Some w -> (
          let now = Engine.now t.engine in
          match t.policy with
          | Codel { target; interval } when now -. w.enq_at > target -> (
              match t.above_since with
              | None ->
                  t.above_since <- Some now;
                  Queue.take_opt t.waiting
              | Some since when now -. since >= interval ->
                  ignore (Queue.pop t.waiting);
                  shed t w;
                  next_waiter t
              | Some _ -> Queue.take_opt t.waiting)
          | _ ->
              t.above_since <- None;
              Queue.take_opt t.waiting))

let acquire t ?(prio = Normal) ?on_shed k =
  if t.alive && t.busy < t.cap then k (grant_idle t)
  else
    let w = { k; on_shed; enq_at = Engine.now t.engine } in
    if not t.alive then shed t w
    else
      match prio with
      | High ->
          (* Control traffic (remaster, replication repair) outranks user
             transactions and is never turned away by the queue bound. *)
          Queue.push w t.waiting_hi
      | Normal ->
          if t.queue_cap > 0 && Queue.length t.waiting >= t.queue_cap then
            shed t w
          else (
            Queue.push w t.waiting;
            let len = Queue.length t.waiting + Queue.length t.waiting_hi in
            if len > t.max_queue then t.max_queue <- len)

let release t lease =
  if lease.released then invalid_arg "Server.release: lease already released";
  lease.released <- true;
  t.busy <- t.busy - 1;
  t.busy_time <- t.busy_time +. (Engine.now t.engine -. lease.acquired_at);
  t.completed <- t.completed + 1;
  (* A dead node grants nothing: queued work was drained at [kill],
     and anything that raced in since is shed on arrival. *)
  if t.alive then match next_waiter t with None -> () | Some w -> grant t w

let finish_job t j =
  let lease = j.job_lease and k = j.job_k in
  j.job_lease <- nil_lease;
  j.job_k <- nop;
  j.job_next <- t.free_jobs;
  t.free_jobs <- j;
  release t lease;
  k ()

let alloc_job t ~lease ~k =
  let j = t.free_jobs in
  if j == nil_job then { job_lease = lease; job_k = k; job_next = nil_job }
  else (
    t.free_jobs <- j.job_next;
    j.job_next <- nil_job;
    j.job_lease <- lease;
    j.job_k <- k;
    j)

let create ?(queue_cap = 0) ?(policy = Reject_newest)
    ?(on_shed = fun () -> ()) engine ~capacity =
  assert (capacity > 0);
  let t =
    {
      engine;
      cap = capacity;
      queue_cap;
      policy;
      notify_shed = on_shed;
      busy = 0;
      waiting = Queue.create ();
      waiting_hi = Queue.create ();
      busy_time = 0.0;
      completed = 0;
      alive = true;
      queue_wait = 0.0;
      max_queue = 0;
      above_since = None;
      free_jobs = nil_job;
      finish = ignore;
    }
  in
  t.finish <- (fun j -> finish_job t j);
  t

let submit t ?prio ?on_shed ~work k =
  let work = if work < 0.0 then 0.0 else work in
  if t.alive && t.busy < t.cap then
    Engine.schedule_apply t.engine ~delay:work t.finish
      (alloc_job t ~lease:(grant_idle t) ~k)
  else
    acquire t ?prio ?on_shed (fun lease ->
        Engine.schedule_apply t.engine ~delay:work t.finish (alloc_job t ~lease ~k))

let kill t =
  if t.alive then (
    t.alive <- false;
    (* Fail-fast: work parked behind a crashed node must not silently
       wait for (or worse, execute after) a grant that implies the node
       is serving. *)
    let drain q = Queue.iter (fun w -> shed t w) q in
    drain t.waiting_hi;
    drain t.waiting;
    Queue.clear t.waiting_hi;
    Queue.clear t.waiting;
    t.above_since <- None)

let revive t = t.alive <- true

let busy t = t.busy
let queue_length t = Queue.length t.waiting + Queue.length t.waiting_hi
let busy_time t = t.busy_time
let completed t = t.completed
let queue_wait t = t.queue_wait
let max_queue t = t.max_queue
