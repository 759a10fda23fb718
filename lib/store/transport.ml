module Engine = Lion_sim.Engine
module Network = Lion_sim.Network
module Metrics = Lion_sim.Metrics
module Server = Lion_sim.Server
module Overload = Lion_sim.Overload
module Trace = Lion_trace.Trace

(* ---- Overload controls (docs/OVERLOAD.md). Every helper collapses to
   a constant when its knob is off, so default runs stay bit-for-bit
   identical to a build without them. ---- *)

(* One retransmission = one token. Dry bucket: the caller gives up. *)
let budget_allows (t : Cluster.t) =
  match t.retry_budget with
  | None -> true
  | Some b ->
      Overload.Token_bucket.try_take b ~now:(Cluster.now t)
      ||
      (Metrics.incr t.metrics Budget_denials;
       false)

let breaker_for (t : Cluster.t) dst =
  if Array.length t.breakers = 0 then None else Some t.breakers.(dst)

(* Any breaker call may promote Open -> Half_open inside its clock
   tick; the delta on the breaker's own counter is the only way to
   observe that from outside, so every wrapper funnels through here. *)
let note_half_opens (t : Cluster.t) b before =
  if Overload.Breaker.half_opens b > before then
    Metrics.incr t.metrics Breaker_half_opens

let breaker_allows (t : Cluster.t) dst =
  match breaker_for t dst with
  | None -> true
  | Some b ->
      let ho = Overload.Breaker.half_opens b in
      let ok = Overload.Breaker.allow b ~now:(Cluster.now t) in
      note_half_opens t b ho;
      ok
      ||
      (Metrics.incr t.metrics Breaker_rejects;
       false)

let breaker_success t dst =
  match breaker_for t dst with
  | None -> ()
  | Some b -> Overload.Breaker.record_success b

let breaker_failure (t : Cluster.t) dst =
  match breaker_for t dst with
  | None -> ()
  | Some b ->
      let opens = Overload.Breaker.opens b in
      let ho = Overload.Breaker.half_opens b in
      Overload.Breaker.record_failure b ~now:(Cluster.now t);
      note_half_opens t b ho;
      if Overload.Breaker.opens b > opens then Metrics.incr t.metrics Breaker_opens

let breaker_state t dst =
  match breaker_for t dst with
  | None -> Overload.Breaker.Closed
  | Some b ->
      let ho = Overload.Breaker.half_opens b in
      let st = Overload.Breaker.state b ~now:(Cluster.now t) in
      note_half_opens t b ho;
      st

let nop () = ()

(* Close a span with a note; with no span it reads no clock. *)
let close_span t note ctx =
  match ctx with
  | None -> ()
  | Some _ ->
      Trace.note ~ts:(Cluster.now t) note ctx;
      Trace.finish ~ts:(Cluster.now t) ctx

let finish_span t ctx =
  match ctx with None -> () | Some _ -> Trace.finish ~ts:(Cluster.now t) ctx

(* ---- Remote calls ---- *)

(* One record per remote call. The attempt number, the attempt's start
   time and its spans are fields, and the continuation the network and
   the service queue call back into is built once per call; [stage]
   says which leg it resumes. A call has at most one live message chain:
   a retransmission starts only after the previous attempt's loss fired
   its timer, so the fields always describe the attempt in flight. *)
type stage = Request | Service | Reply

type 'a call = {
  cl : Cluster.t;
  src : int;
  dst : int;
  bytes : int;
  work : float;
  prio : Server.prio option;
  deadline : float option;
  ctx : Trace.ctx option;
  k : 'a -> unit;
  on_fail : 'a -> unit;
  arg : 'a;
  mutable attempt : int;
  mutable t0 : float;
  mutable actx : Trace.ctx option;
  mutable sctx : Trace.ctx option;  (** the service span, open while queued or served *)
  mutable stage : stage;  (** the leg in flight *)
  mutable resume : unit -> unit;  (** runs the leg in flight when it lands *)
  mutable lost : (unit -> unit) option;
      (** [Some], so it is passed as [?on_drop]/[?on_shed] without a
          fresh option per message *)
}

(* One span per attempt; retransmissions show up as sibling spans with
   a "retry" annotation on the one that timed out. *)
let rec call_attempt c =
  let t = c.cl in
  c.t0 <- Cluster.now t;
  (match c.ctx with
  | None -> ()
  | Some _ ->
      c.actx <-
        Trace.child ~node:c.dst ~name:(Printf.sprintf "rpc %d->%d" c.src c.dst) ~ts:c.t0
          c.ctx);
  c.stage <- Request;
  Network.send t.network ~src:c.src ~dst:c.dst ~bytes:c.bytes ?on_drop:c.lost ?ctx:c.actx
    c.resume

(* A call waits out [rpc_timeout] before it retries, and a dry retry
   budget ends it without counting a timeout. *)
and call_timer c =
  let t = c.cl in
  let give_up note =
    close_span t note c.actx;
    breaker_failure t c.dst;
    c.on_fail c.arg
  in
  if c.attempt >= Config.rpc_retries then (
    Metrics.incr t.metrics Timeouts;
    give_up "timeout")
  else if match c.deadline with Some d -> Cluster.now t >= d | None -> false then (
    (* Deadline propagation: a transaction already past its deadline
       sheds instead of retrying. *)
    Metrics.incr t.metrics Timeouts;
    give_up "deadline")
  else if not (budget_allows t) then give_up "budget-denied"
  else (
    Metrics.incr t.metrics Retries;
    close_span t "retry" c.actx;
    let backoff = Config.rpc_backoff *. float_of_int (1 lsl c.attempt) in
    c.attempt <- c.attempt + 1;
    Engine.schedule_apply t.engine ~delay:backoff call_attempt c)

(* The simulator is omniscient: a timeout only ever matters when the
   request or reply is actually lost (or shed by the remote admission
   queue), so the timer is created lazily at the moment of loss (healthy
   runs schedule no extra events — determinism is preserved
   bit-for-bit). A shed request still has its service span open; a
   dropped message has none. *)
let call_lost c =
  let t = c.cl in
  (* The overloaded (or dead) receiver shed the request: the sender can
     only find out by timing out. *)
  close_span t "shed" c.sctx;
  c.sctx <- None;
  let remaining = Stdlib.max 0.0 (c.t0 +. Config.rpc_timeout -. Cluster.now t) in
  Engine.schedule_apply t.engine ~delay:remaining call_timer c

let call_resume c =
  let t = c.cl in
  match c.stage with
  | Request ->
      (* The request landed: queue it for [dst]'s messenger pool. *)
      (match c.actx with
      | None -> ()
      | Some _ -> c.sctx <- Trace.child ~name:"service" ~ts:(Cluster.now t) c.actx);
      c.stage <- Service;
      Server.submit t.services.(c.dst) ?prio:c.prio ?on_shed:c.lost
        ~work:(c.work *. Cluster.work_scale t c.dst) c.resume
  | Service ->
      finish_span t c.sctx;
      c.sctx <- None;
      c.stage <- Reply;
      Network.send t.network ~src:c.dst ~dst:c.src ~bytes:c.bytes ?on_drop:c.lost
        ?ctx:c.actx c.resume
  | Reply ->
      finish_span t c.actx;
      breaker_success t c.dst;
      c.k c.arg

let call (t : Cluster.t) ?(on_fail = ignore) ?ctx ?deadline ?prio ~src ~dst ~bytes ~work
    k arg =
  if src = dst then
    if t.node_alive.(dst) then
      Server.submit t.services.(dst) ?prio
        ~on_shed:(fun () -> on_fail arg)
        ~work:(work *. Cluster.work_scale t dst)
        (fun () -> k arg)
    else on_fail arg
  else if not (breaker_allows t dst) then
    (* Open breaker: shed the call immediately — no wire traffic, no
       worker-hold through a doomed timeout. *)
    on_fail arg
  else
    let c =
      {
        cl = t;
        src;
        dst;
        bytes;
        work;
        prio;
        deadline;
        ctx;
        k;
        on_fail;
        arg;
        attempt = 0;
        t0 = 0.0;
        actx = None;
        sctx = None;
        stage = Request;
        resume = nop;
        lost = None;
      }
    in
    c.resume <- (fun () -> call_resume c);
    c.lost <- Some (fun () -> call_lost c);
    call_attempt c

(* ---- Log shipping and anti-entropy ---- *)

(* Anti-entropy repair: a log ship that exhausted its retries (long
   partition, dead link) leaves the replica's applied watermark behind
   the authoritative log. The loop re-ships the missing suffix from a
   live replica until the target catches up, loses the replica, or
   dies; each failed round backs off exponentially from two RPC
   timeouts up to [resync_backoff_cap], bounded by [tries] so a
   permanently unreachable replica cannot keep the event queue alive
   forever. The cap matters: at a fixed two-timeout interval the whole
   budget burns in under a second, so any partition outliving it left
   the replica permanently behind — a real divergence the fault-schedule
   fuzzer found. With the capped doubling the same budget spans ~30
   simulated seconds, past any plan's heal time. It is only ever
   started after a ship actually failed, so healthy runs schedule
   nothing and stay bit-for-bit identical. *)
let resync_backoff_cap = 500_000.0

let rec resync_replica (t : Cluster.t) ~part ~node ~tries ~backoff =
  let stop () = Hashtbl.remove t.resync_inflight (part, node) in
  let goal = Replication.appends t.replication ~part in
  if
    (not t.node_alive.(node))
    || (not (Placement.has_replica t.placement ~part ~node))
    || Replication.applied t.replication ~part ~node >= goal
    || tries <= 0
  then stop ()
  else
    let retry () =
      Engine.schedule t.engine ~delay:backoff (fun () ->
          resync_replica t ~part ~node ~tries:(tries - 1)
            ~backoff:(Float.min (2.0 *. backoff) resync_backoff_cap))
    in
    let live_source =
      List.find_opt
        (fun n -> n <> node && t.node_alive.(n))
        (Placement.primary t.placement part :: Placement.secondaries t.placement part)
    in
    match live_source with
    | None -> retry () (* every other replica is down: wait for a recovery *)
    | Some src ->
        let cur = Replication.applied t.replication ~part ~node in
        let bytes = Stdlib.max 256 ((goal - cur) * Config.record_bytes) in
        let session = Cluster.session_for t ~part ~dst:node in
        Network.send t.network ~src ~dst:node ~bytes ~on_drop:retry (fun () ->
            let stale = Cluster.session_stale t ~dst:node session in
            if Cluster.refuse_stale t ~stale then begin
              (* The node rejoined while the suffix was in flight: the
                 shipped range was computed against its previous
                 incarnation. Reject and restart with a fresh session. *)
              Metrics.incr t.metrics Resync_stale;
              resync_replica t ~part ~node ~tries:(tries - 1) ~backoff
            end
            else begin
              (* The suffix extends state from [cur]: incremental, so
                 the durable watermark moves only where durable state
                 exists — and not at all on an accepted stale ship. *)
              Replication.ack_stream t.replication ~part ~node ~upto:goal ~stale;
              Metrics.incr t.metrics Resync_apply;
              t.resync_count <- t.resync_count + 1;
              (* More records may have landed while the suffix was in
                 flight: chase the tail before declaring victory. A
                 successful round resets the backoff: the link works. *)
              resync_replica t ~part ~node ~tries
                ~backoff:(2.0 *. Config.rpc_timeout)
            end)

let start_resync (t : Cluster.t) ~part ~node =
  if not (Hashtbl.mem t.resync_inflight (part, node)) then (
    Hashtbl.add t.resync_inflight (part, node) ();
    Engine.schedule t.engine ~delay:(2.0 *. Config.rpc_timeout) (fun () ->
        resync_replica t ~part ~node ~tries:64
          ~backoff:(2.0 *. Config.rpc_timeout)))

(* One record per log ship (one record to one secondary), built like
   a [call]: the attempt number and the span are fields, the two
   network continuations are built once per ship, and the chain has at
   most one message in flight. *)
type ship = {
  owner : Cluster.t;
  part : int;
  from_node : int;
  to_node : int;
  upto : int;  (** log index the record carries *)
  session : Replication.session;
      (** fixed when the ship starts; retransmissions reuse it, exactly
          like a real replication session that outlives a destination
          restart *)
  rctx : Trace.ctx option;
  mutable tries : int;
  mutable arrived : unit -> unit;
  mutable dropped : (unit -> unit) option;
}

let ship_send (s : ship) =
  Network.send s.owner.network ~src:s.from_node ~dst:s.to_node
    ~bytes:Config.record_bytes ?on_drop:s.dropped s.arrived

let ship_arrived (s : ship) =
  let t = s.owner and dst = s.to_node in
  let stale = Cluster.session_stale t ~dst s.session in
  if Cluster.refuse_stale t ~stale then begin
    (* Delivered to a node that left and rejoined while the record was
       in flight: the ack would stamp a watermark the node's storage no
       longer backs. *)
    close_span t "stale-session" s.rctx
  end
  else begin
    (* The stream is cumulative: delivering the record at index [upto]
       implies everything before it arrived (or was re-shipped) too —
       for the believed watermark always, for the durable one only where
       durable state exists and the session is fresh. *)
    Replication.ack_stream t.replication ~part:s.part ~node:dst ~upto:s.upto ~stale;
    finish_span t s.rctx;
    breaker_success t dst
  end

(* Log shipping retries on loss like a call, but needs no reply: the
   group-commit stream is idempotent, so the only cost of a loss is the
   retransmission. A ship retries as soon as a message drops, draws on
   the same retry budget as calls, and counts a budget denial as a
   timeout (it hands the replica to anti-entropy either way). *)
let ship_dropped (s : ship) =
  let t = s.owner in
  let give_up note =
    Metrics.incr t.metrics Timeouts;
    close_span t note s.rctx;
    breaker_failure t s.to_node;
    start_resync t ~part:s.part ~node:s.to_node
  in
  if s.tries >= Config.rpc_retries then give_up "timeout"
  else if not (budget_allows t) then give_up "budget-denied"
  else (
    Metrics.incr t.metrics Retries;
    (match s.rctx with None -> () | Some _ -> Trace.note ~ts:(Cluster.now t) "retry" s.rctx);
    let backoff = Config.rpc_backoff *. float_of_int (1 lsl s.tries) in
    s.tries <- s.tries + 1;
    Engine.schedule_apply t.engine ~delay:backoff ship_send s)

let start_ship (t : Cluster.t) ctx ~part ~src ~upto ~dst =
  (* The asynchronous log ship gets its own span (phase [Replication]):
     it usually outlives the transaction, so it shows up in the exported
     trace as the async tail but is never blamed on the critical path. *)
  let rctx =
    match ctx with
    | None -> None
    | Some _ ->
        Trace.child ~node:dst ~part ~phase:Trace.Replication ~name:"log-ship" ~ts:(Cluster.now t) ctx
  in
  let session = Cluster.session_for t ~part ~dst in
  (* A destination whose breaker is open is handed straight to
     anti-entropy — the resync loop ships the whole missing suffix
     later, which is cheaper than feeding a black hole one record at a
     time. *)
  if breaker_allows t dst then (
    let s =
      {
        owner = t;
        part;
        from_node = src;
        to_node = dst;
        upto;
        session;
        rctx;
        tries = 0;
        arrived = nop;
        dropped = None;
      }
    in
    s.arrived <- (fun () -> ship_arrived s);
    s.dropped <- Some (fun () -> ship_dropped s);
    ship_send s)
  else (
    close_span t "breaker-open" rctx;
    start_resync t ~part ~node:dst)

let rec replicate_commit (t : Cluster.t) ?ctx = function
  | [] -> ()
  | p :: rest ->
      Replication.append t.replication ~part:p;
      let len = Replication.appends t.replication ~part:p in
      let src = Placement.primary t.placement p in
      (* The primary's own copy applies the record at commit time — an
         incremental extension of its local log, so it advances the
         durable watermark only where durable state exists. (A primary
         promoted from a stale-session install has none: its commits
         stamp bookkeeping over state its storage never received, which
         is exactly what the divergence audit must still see.) *)
      Replication.ack_stream t.replication ~part:p ~node:src ~upto:len ~stale:false;
      (* Secondaries in ascending node order, as [Placement.secondaries]
         lists them, without building the list. *)
      for dst = 0 to Placement.nodes t.placement - 1 do
        if Placement.has_secondary t.placement ~part:p ~node:dst then
          start_ship t ctx ~part:p ~src ~upto:len ~dst
      done;
      replicate_commit t ?ctx rest
