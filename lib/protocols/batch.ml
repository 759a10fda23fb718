module Cluster = Lion_store.Cluster
module Config = Lion_store.Config
module Kvstore = Lion_store.Kvstore
module Engine = Lion_sim.Engine
module Network = Lion_sim.Network
module Metrics = Lion_sim.Metrics
module Txn = Lion_workload.Txn
module Trace = Lion_trace.Trace
module History = Lion_store.History
module Pqueue = Lion_kernel.Pqueue

type verdict = { committed : bool; single_node : bool; remastered : bool }

(* The eight verdicts, indexed by their three flags as bits, so an
   epoch's verdict array shares them instead of holding one record per
   transaction. *)
let verdicts =
  Array.init 8 (fun b ->
      { committed = b land 4 <> 0; single_node = b land 2 <> 0; remastered = b land 1 <> 0 })

let[@inline] verdict ~committed ~single_node ~remastered =
  Array.unsafe_get verdicts
    ((Bool.to_int committed lsl 2) lor (Bool.to_int single_node lsl 1) lor Bool.to_int remastered)

type epoch_result = {
  verdicts : verdict array;
  node_busy : float array;
  serial_time : float;
  barrier_time : float;
}

(* The granules reserved in the current window of a conflict pass, by
   linear probing over one flat array of one-word cells: 0 is free,
   [g + 1] holds granule [g]. [filled] lists the window's filled cells,
   so starting a window clears just those, and a reservation allocates
   nothing. Nothing is removed within a window, so a probe run only
   grows: a probe may resume from where an earlier one for the same
   granule ended. *)
module Granule_set = struct
  type t = { mutable cells : int array; mutable shift : int; mutable filled : int array; mutable count : int }

  (* Fibonacci hashing, as in [Kvstore]'s table. *)
  let multiplier = 0x1E3779B97F4A7C15
  let log2_capacity = 10

  let create () =
    let cap = 1 lsl log2_capacity in
    { cells = Array.make cap 0; shift = 63 - log2_capacity; filled = Array.make cap 0; count = 0 }

  let next_window t =
    for j = 0 to t.count - 1 do
      Array.unsafe_set t.cells (Array.unsafe_get t.filled j) 0
    done;
    t.count <- 0

  (* From cell [i] on, the cell holding [c] or the free cell that ends
     the run. The [int array] annotation keeps both tests immediate:
     without it [probe] is polymorphic and calls the runtime's generic
     equality. *)
  let rec probe (cells : int array) mask c i =
    let x = Array.unsafe_get cells i in
    if x = 0 || x = c then i else probe cells mask c ((i + 1) land mask)

  (* Cell of granule [g] (stored as [g + 1]), or the free cell where it
     would go. *)
  let[@inline] find t g =
    probe t.cells (Array.length t.cells - 1) (g + 1) ((g * multiplier) lsr t.shift)

  let[@inline] holds t i g = Array.unsafe_get t.cells i = g + 1

  (* Reserve [g] from cell [i], the end of an earlier [find] for it in
     this window, with no [grow] since. *)
  let add_from t i g =
    let i = probe t.cells (Array.length t.cells - 1) (g + 1) i in
    if Array.unsafe_get t.cells i = 0 then (
      Array.unsafe_set t.cells i (g + 1);
      Array.unsafe_set t.filled t.count i;
      t.count <- t.count + 1)

  let grow t =
    let old = t.cells and old_filled = t.filled in
    let cap = 2 * Array.length old in
    t.cells <- Array.make cap 0;
    t.filled <- Array.make cap 0;
    t.shift <- t.shift - 1;
    let n = t.count in
    t.count <- 0;
    for j = 0 to n - 1 do
      let g = old.(old_filled.(j)) - 1 in
      add_from t (find t g) g
    done

  (* Room for [n] more granules at a load of at most 3/4. Called before
     the [find]s whose cells [add_from] resumes from, since a resize
     moves every cell. *)
  let ensure t n =
    while 4 * (t.count + n) > 3 * Array.length t.cells do
      grow t
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
  (* Per operation of the current transaction: the granule of each
     participating write and the cell its probe ended on, or -1. *)
  let granule_buf = ref (Array.make 64 0) and cell_buf = ref (Array.make 64 (-1)) in
  for i = 0 to n - 1 do
    if i mod window = 0 then Granule_set.next_window reserved;
    let txn = txns.(i) in
    let ops = txn.Txn.ops in
    let n_ops = Array.length ops in
    if n_ops > Array.length !cell_buf then (
      granule_buf := Array.make n_ops 0;
      cell_buf := Array.make n_ops (-1));
    let granules = !granule_buf and cells = !cell_buf in
    Granule_set.ensure reserved n_ops;
    let in_footprint = match footprint with None -> None | Some f -> Some (f i) in
    let doomed = ref false and j = ref 0 in
    while (not !doomed) && !j < n_ops do
      let op = ops.(!j) in
      let write = Txn.is_write op in
      Array.unsafe_set cells !j (-1);
      (if include_raw || write then
         let k = Txn.key_of op in
         if participates in_footprint k then (
           let g = granule_of granule k in
           let c = Granule_set.find reserved g in
           if Granule_set.holds reserved c g then doomed := true
           else if write then (
             Array.unsafe_set granules !j g;
             Array.unsafe_set cells !j c)));
      incr j
    done;
    if !doomed then ok.(i) <- false
    else
      for j = 0 to n_ops - 1 do
        let c = Array.unsafe_get cells j in
        if c >= 0 then Granule_set.add_from reserved c (Array.unsafe_get granules j)
      done
  done;
  ok

type request = {
  txn : Txn.t;
  enqueued : int;
      (* submit time as [Pqueue.key_of_time], which round-trips exactly:
         an int field keeps the record free of a boxed float *)
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
      (* an epoch is in flight, or its deferred start is queued *)
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

let walk_stages st req ~enqueued ~t0 ~t1 ~t2 ~t3 ~now =
  let seq_label, barrier_label = st.stage_labels and ctx = req.ctx in
  let phases =
    match req.phases with Some p -> p | None -> Metrics.phase_times ~since:enqueued ()
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
            let enqueued = Pqueue.time_of_key req.enqueued in
            let phases = walk_stages st req ~enqueued ~t0 ~t1 ~t2 ~t3 ~now in
            if v.committed || give_up then (
              let latency = now -. enqueued in
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
        start_epoch st))

(* Defer the start to the event loop so all same-instant submissions
   land in the same epoch. Setting [running] now makes the instant's
   later submissions queue no start of their own; under FIFO ties the
   one start fires after every event already queued for the instant. *)
let maybe_start st =
  if (not st.running) && Queue.length st.buffer + Queue.length st.carryover > 0 then (
    st.running <- true;
    Engine.schedule_apply st.cl.Cluster.engine ~delay:0.0 start_epoch st)

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
      { txn; enqueued = Pqueue.key_of_time now; retries = 0; on_done; ctx; phases = None }
      st.buffer;
    maybe_start st
  in
  let drain () = maybe_start st in
  Proto.make ~name ~submit ~tick ~drain ()
