module Timeseries = Lion_kernel.Timeseries

(* Pooled delivery record: one per in-flight message on the
   fault-checked path, recycled on delivery. Scheduling a message then
   costs one [Engine.Apply] cell instead of a fresh closure per send —
   the free list is intrusive ([next]) so recycling allocates nothing
   either. [nil_msg] is the shared free-list terminator. *)
type msg = {
  mutable dst : int;
  mutable k : unit -> unit;
  mutable on_drop : unit -> unit;
  mutable next : msg;
}

let nop () = ()
let rec nil_msg = { dst = -1; k = nop; on_drop = nop; next = nil_msg }

(* Region topology: a static node → region map plus the WAN link
   class. Links inside one region keep the LAN [latency]/[per_byte];
   links whose endpoints map to different regions pay the (much
   larger) WAN figures instead. *)
type topology = {
  regions : int;
  region_of : int array;
  wan_latency : float;
  wan_per_byte : float;
}

type t = {
  engine : Engine.t;
  latency : float;
  per_byte : float;
  topology : topology option;
  mutable total_bytes : int;
  mutable messages : int;
  bytes_series : Timeseries.t;
  fault : Fault.t option;
  metrics : Metrics.t option;
  mutable free_msgs : msg;
  mutable deliver : msg -> unit; (* tied to [t] once, in [create] *)
}

let alloc_msg t ~dst ~k ~on_drop =
  let m = t.free_msgs in
  if m == nil_msg then { dst; k; on_drop; next = nil_msg }
  else (
    t.free_msgs <- m.next;
    m.next <- nil_msg;
    m.dst <- dst;
    m.k <- k;
    m.on_drop <- on_drop;
    m)

let release_msg t m =
  m.k <- nop;
  m.on_drop <- nop;
  m.next <- t.free_msgs;
  t.free_msgs <- m

let record_drop t = match t.metrics with Some m -> Metrics.incr m Drops | None -> ()

(* In-flight delivery to a node that died after the message left: lost
   on arrival. The record is recycled before the continuation runs, so
   a continuation that sends again reuses it immediately. *)
let deliver_msg t m =
  let dst = m.dst and k = m.k and on_drop = m.on_drop in
  release_msg t m;
  match t.fault with
  | Some f when not (Fault.up f dst) ->
      record_drop t;
      on_drop ()
  | _ -> k ()

let create ?(latency = 60.0) ?(per_byte = 0.0085) ?topology ?fault ?metrics
    engine =
  let t =
    {
      engine;
      latency;
      per_byte;
      topology;
      total_bytes = 0;
      messages = 0;
      bytes_series = Timeseries.create ~interval:(Engine.seconds 1.0);
      fault;
      metrics;
      free_msgs = nil_msg;
      deliver = ignore;
    }
  in
  t.deliver <- (fun m -> deliver_msg t m);
  t

let engine t = t.engine
let fault t = t.fault
let topology t = t.topology
let regions t = match t.topology with None -> 1 | Some g -> g.regions
let region_of t node = match t.topology with None -> 0 | Some g -> g.region_of.(node)

let cross_region t ~src ~dst =
  match t.topology with
  | None -> false
  | Some g -> g.region_of.(src) <> g.region_of.(dst)

let[@inline] oneway_delay t ~bytes = t.latency +. (float_of_int bytes *. t.per_byte)

(* The per-link delay: LAN figures inside a region, WAN figures
   across. Region-free networks evaluate exactly the historical
   [oneway_delay] expression, keeping the default path byte-identical. *)
let[@inline] link_delay t ~src ~dst ~bytes =
  match t.topology with
  | None -> oneway_delay t ~bytes
  | Some g ->
      if g.region_of.(src) <> g.region_of.(dst) then
        g.wan_latency +. (float_of_int bytes *. g.wan_per_byte)
      else oneway_delay t ~bytes

let roundtrip t ~bytes = 2.0 *. oneway_delay t ~bytes

(* Single accounting path: every non-local message — delivered or killed
   by the fault layer — charges its bytes here, so [bytes_series] stays
   consistent under drops. *)
let account t ~bytes =
  t.total_bytes <- t.total_bytes + bytes;
  t.messages <- t.messages + 1;
  Timeseries.add t.bytes_series ~time:(Engine.now t.engine) (float_of_int bytes)

let charge t ~bytes = account t ~bytes

module Trace = Lion_trace.Trace

(* The fate of one message whose span (if any) is already open: lost
   now, or scheduled for delivery through a pooled record. *)
let dispatch t ~src ~dst ~bytes k on_drop =
  match t.fault with
  | None -> Engine.schedule t.engine ~delay:(link_delay t ~src ~dst ~bytes) k
  | Some f -> (
      let verdict =
        if Fault.link_inert f then Fault.endpoints f ~src ~dst
        else Fault.link f ~now:(Engine.now t.engine) ~src ~dst
      in
      match verdict with
      | Fault.Blocked | Fault.Dropped ->
          record_drop t;
          on_drop ()
      | Fault.Deliver extra ->
          Engine.schedule_apply t.engine
            ~delay:(link_delay t ~src ~dst ~bytes +. extra)
            t.deliver
            (alloc_msg t ~dst ~k ~on_drop))

let send t ~src ~dst ~bytes ?(on_drop = nop) ?ctx k =
  if src = dst then Engine.schedule t.engine ~delay:0.0 k
  else (
    account t ~bytes;
    (* Link classification happens only under a topology: the
       region-free path skips the metrics call and evaluates the exact
       historical delay expression (bit-for-bit identical runs). *)
    let cross =
      match t.topology with
      | None -> false
      | Some g ->
          let cross = g.region_of.(src) <> g.region_of.(dst) in
          (match t.metrics with
          | Some m ->
              Metrics.add m (if cross then Wan_messages else Lan_messages) 1;
              Metrics.add m (if cross then Wan_bytes else Lan_bytes) bytes
          | None -> ());
          cross
    in
    (* Tracing wraps the continuations only for sampled transactions:
       the [None] path (tracing disabled or txn unsampled) allocates
       nothing and schedules no extra events. Cross-region hops get the
       distinct "wan" span phase so critical-path reports and Perfetto
       exports show WAN time; intra-region hops inherit the parent
       phase as before. *)
    match ctx with
    | None -> dispatch t ~src ~dst ~bytes k on_drop
    | Some _ ->
        let mctx =
          Trace.child ~node:dst
            ?phase:(if cross then Some "wan" else None)
            ~name:(Printf.sprintf "msg %d->%d" src dst)
            ~ts:(Engine.now t.engine) ctx
        in
        dispatch t ~src ~dst ~bytes
          (fun () ->
            Trace.finish ~ts:(Engine.now t.engine) mctx;
            k ())
          (fun () ->
            let now = Engine.now t.engine in
            Trace.note ~ts:now "drop" mctx;
            Trace.finish ~ts:now mctx;
            on_drop ()))

let total_bytes t = t.total_bytes
let bytes_series t = t.bytes_series
let message_count t = t.messages
