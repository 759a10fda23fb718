module Cluster = Lion_store.Cluster
module Config = Lion_store.Config
module Kvstore = Lion_store.Kvstore
module Engine = Lion_sim.Engine
module Network = Lion_sim.Network
module Metrics = Lion_sim.Metrics
module Txn = Lion_workload.Txn
module Trace = Lion_trace.Trace
module History = Lion_store.History

type verdict = { committed : bool; single_node : bool; remastered : bool }

type epoch_result = {
  verdicts : verdict array;
  node_busy : float array;
  serial_time : float;
  barrier_time : float;
}

(* The granules reserved in the current window of a conflict pass, by
   linear probing over one flat array of (granule, stamp) cell pairs. A
   cell belongs to the window only while it carries the current stamp,
   so starting a window is one increment instead of a clear, and a
   reservation allocates nothing. Nothing is removed within a window,
   so a probe may stop at the first cell of an older stamp. *)
module Granule_set = struct
  type t = { mutable cells : int array; mutable shift : int; mutable count : int; mutable stamp : int }

  (* Fibonacci hashing, as in [Kvstore]'s table. *)
  let multiplier = 0x1E3779B97F4A7C15
  let log2_capacity = 10

  let create () =
    { cells = Array.make (2 lsl log2_capacity) 0; shift = 63 - log2_capacity; count = 0; stamp = 1 }

  let next_window t =
    t.stamp <- t.stamp + 1;
    t.count <- 0

  (* Cell index of [g], or of the first stale cell of its probe run.
     The [int array] annotation keeps both tests immediate: without it
     [probe] is polymorphic and calls the runtime's generic equality. *)
  let rec probe (cells : int array) mask stamp g i =
    if Array.unsafe_get cells ((2 * i) + 1) <> stamp || Array.unsafe_get cells (2 * i) = g then i
    else probe cells mask stamp g ((i + 1) land mask)

  let[@inline] find t g =
    probe t.cells ((Array.length t.cells lsr 1) - 1) t.stamp g ((g * multiplier) lsr t.shift)

  let mem t g = Array.unsafe_get t.cells ((2 * find t g) + 1) = t.stamp

  let rec add t g =
    let i = find t g in
    if Array.unsafe_get t.cells ((2 * i) + 1) <> t.stamp then
      if 4 * (t.count + 1) > 3 * (Array.length t.cells lsr 1) then (
        grow t;
        add t g)
      else (
        Array.unsafe_set t.cells (2 * i) g;
        Array.unsafe_set t.cells ((2 * i) + 1) t.stamp;
        t.count <- t.count + 1)

  and grow t =
    let old = t.cells in
    t.cells <- Array.make (2 * Array.length old) 0;
    t.shift <- t.shift - 1;
    t.count <- 0;
    for i = 0 to (Array.length old / 2) - 1 do
      if old.((2 * i) + 1) = t.stamp then add t old.(2 * i)
    done
end

(* Without a footprint or a granule map (key-level OCC) both are a
   branch per operation, not a closure call. *)
let[@inline] participates in_footprint k = match in_footprint with None -> true | Some f -> f k

let[@inline] granule_of granule k =
  match granule with None -> (k : Kvstore.key :> int) | Some g -> g k

let conflict_verdicts ?(include_raw = false) ?window ?footprint ?granule txns =
  let n = Array.length txns in
  let window = match window with Some w -> Stdlib.max 1 w | None -> n in
  let reserved = Granule_set.create () in
  let ok = Array.make n true in
  for i = 0 to n - 1 do
    if i mod window = 0 then Granule_set.next_window reserved;
    let txn = txns.(i) in
    let ops = txn.Txn.ops in
    let in_footprint = match footprint with None -> None | Some f -> Some (f i) in
    let doomed = ref false and j = ref 0 in
    while (not !doomed) && !j < Array.length ops do
      let op = ops.(!j) in
      (if include_raw || Txn.is_write op then
         let k = Txn.key_of op in
         doomed := participates in_footprint k && Granule_set.mem reserved (granule_of granule k));
      incr j
    done;
    if !doomed then ok.(i) <- false
    else
      for j = 0 to Array.length ops - 1 do
        let op = ops.(j) in
        let k = Txn.key_of op in
        if Txn.is_write op && participates in_footprint k then
          Granule_set.add reserved (granule_of granule k)
      done
  done;
  ok

type request = {
  txn : Txn.t;
  enqueued : float;
  mutable retries : int;
  on_done : unit -> unit;
  ctx : Trace.ctx option;  (* root trace context, None when untraced *)
  mutable phases : Metrics.phase_times option;
      (* None until its first re-queue; then the phases so far, whose
         [since] is where the next epoch's queue-wait stage starts *)
}

type state = {
  cl : Cluster.t;
  process : Txn.t array -> epoch_result;
  max_retries : int;
  buffer : request Queue.t;
  carryover : request Queue.t;  (* aborted transactions, retried first *)
  mutable running : bool;
  stage_labels : string * string;
      (* protocol-specific names for the sequencing and barrier stage
         spans of traced transactions *)
}

(* Epoch commit barrier: the nodes agree to commit the epoch — a couple
   of cross-node round trips regardless of batch size. *)
let epoch_commit_cost cl = 4.0 *. Network.oneway_delay cl.Cluster.network ~bytes:64

(* The stages tile the request's wait and this epoch, up to [now]: each
   runs the clock from [since] to its end [b] and, when traced, is a
   retroactive span of that stretch. A request is only given a record
   of its own when it is re-queued, so a batch in flight holds none. *)
let stage phases ctx name phase b =
  let a = phases.Metrics.since in
  if b > a then (
    Metrics.charge phases phase ~now:b;
    match ctx with
    | None -> ()
    | Some _ -> Trace.finish ~ts:b (Trace.child ~phase ~name ~ts:a ctx))

let walk_stages st req ~t0 ~t1 ~t2 ~t3 ~now =
  let seq_label, barrier_label = st.stage_labels and ctx = req.ctx in
  let phases =
    match req.phases with Some p -> p | None -> Metrics.phase_times ~since:req.enqueued ()
  in
  stage phases ctx "queue-wait" Scheduling t0;
  stage phases ctx seq_label Scheduling t1;
  stage phases ctx "execution" Execution t2;
  stage phases ctx barrier_label Remaster t3;
  stage phases ctx "epoch-commit" Commit now;
  phases

(* Consistency-audit hook. Epoch engines are analytic — they never
   touch the real [Kvstore] — so history events are synthesized against
   the sink's private shadow store, in epoch commit order (the array
   order the deterministic conflict pass already fixed): a committed
   transaction reads the current shadow versions, installs its writes
   (bumping them), and records the installed versions; an aborted
   attempt records only its observed reads. With no sink this is one
   match per epoch. *)
let record_history st ~now req (v : verdict) =
  match st.cl.Cluster.history with
  | None -> ()
  | Some h ->
      let shadow = History.shadow h in
      let reads =
        Array.fold_right
          (fun op acc ->
            let k = Txn.key_of op in
            (k, Kvstore.version shadow k) :: acc)
          req.txn.Txn.ops []
      in
      let writes =
        if v.committed then (
          let wkeys = List.sort_uniq Kvstore.key_compare (Txn.write_keys req.txn) in
          let s = Kvstore.begin_session shadow in
          List.iter (Kvstore.write s) wkeys;
          Kvstore.commit_session s;
          List.map (fun k -> (k, Kvstore.version shadow k)) wkeys)
        else []
      in
      History.record h ~txn_id:req.txn.Txn.id ~attempt:(req.retries + 1) ~reads
        ~writes
        ~outcome:(if v.committed then History.Committed else History.Aborted)
        ~ts:now

let rec start_epoch st =
  let cfg = st.cl.Cluster.cfg in
  let batch_size = cfg.Config.batch_size in
  (* Up to [batch_size] requests: the re-queued aborts first, then new
     submissions, each queue in FIFO order. *)
  let n = Stdlib.min batch_size (Queue.length st.carryover + Queue.length st.buffer) in
  if n = 0 then st.running <- false
  else (
    let requests =
      Array.init n (fun _ ->
          if Queue.is_empty st.carryover then Queue.pop st.buffer else Queue.pop st.carryover)
    in
    st.running <- true;
    let txns = Array.map (fun r -> r.txn) requests in
    let result = st.process txns in
    assert (Array.length result.verdicts = Array.length txns);
    let workers = float_of_int cfg.Config.workers_per_node in
    let exec_time =
      Array.fold_left (fun acc busy -> Stdlib.max acc (busy /. workers)) 0.0 result.node_busy
    in
    let epoch_start = Engine.now st.cl.Cluster.engine in
    let duration =
      result.serial_time +. exec_time +. result.barrier_time +. epoch_commit_cost st.cl
    in
    Engine.schedule st.cl.Cluster.engine ~delay:duration (fun () ->
        let now = Engine.now st.cl.Cluster.engine in
        let t0 = epoch_start in
        let t1 = t0 +. result.serial_time in
        let t2 = t1 +. exec_time in
        let t3 = t2 +. result.barrier_time in
        Array.iteri
          (fun i req ->
            let v = result.verdicts.(i) in
            let give_up = req.retries >= st.max_retries in
            record_history st ~now req v;
            let phases = walk_stages st req ~t0 ~t1 ~t2 ~t3 ~now in
            if v.committed || give_up then (
              let latency = now -. req.enqueued in
              (* Batch engines never enforce deadlines (retries are
                 already bounded by [max_retries]) but the goodput
                 accounting matches the standard path: a commit past
                 the client's patience counts out of goodput. *)
              let late = Config.misses_deadline cfg latency in
              Metrics.record_commit ~late st.cl.Cluster.metrics ~latency
                ~single_node:v.single_node ~remastered:v.remastered
                ~phases;
              Trace.finish_txn ~ts:now ~ok:v.committed req.ctx;
              req.on_done ())
            else (
              Metrics.incr st.cl.Cluster.metrics Aborts;
              Trace.note_abort ~ts:now req.ctx;
              (* The walk left [since] at [now]. *)
              if Option.is_none req.phases then req.phases <- Some phases;
              req.retries <- req.retries + 1;
              Queue.push req st.carryover))
          requests;
        if Queue.is_empty st.buffer && Queue.is_empty st.carryover then
          st.running <- false
        else start_epoch st))

let maybe_start st =
  if (not st.running) && Queue.length st.buffer + Queue.length st.carryover > 0 then
    (* Defer to the event loop so all same-instant submissions land in
       the same epoch. *)
    Engine.schedule st.cl.Cluster.engine ~delay:0.0 (fun () ->
        if not st.running then (
          st.running <- true;
          start_epoch st))

let create cl ~name ~process ?(tick = fun () -> ()) ?(max_retries = 100)
    ?(stage_labels = ("sequencing", "barrier")) () =
  let st =
    {
      cl;
      process;
      max_retries;
      buffer = Queue.create ();
      carryover = Queue.create ();
      running = false;
      stage_labels;
    }
  in
  let submit txn ~on_done =
    let now = Engine.now cl.Cluster.engine in
    let ctx =
      match cl.Cluster.tracer with
      | None -> None
      | Some tracer -> Trace.start_txn tracer ~ts:now ~txn_id:txn.Txn.id
    in
    Queue.push
      { txn; enqueued = now; retries = 0; on_done; ctx; phases = None }
      st.buffer;
    maybe_start st
  in
  let drain () = maybe_start st in
  Proto.make ~name ~submit ~tick ~drain ()
