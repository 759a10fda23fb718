type phase = Execution | Prepare | Commit | Remaster | Scheduling | Replication

let phase_name = function
  | Execution -> "execution"
  | Prepare -> "prepare"
  | Commit -> "commit"
  | Remaster -> "remaster"
  | Scheduling -> "scheduling"
  | Replication -> "replication"

let all_phases = [ Execution; Prepare; Commit; Remaster; Scheduling; Replication ]

type span = {
  id : int;
  parent : int;
  name : string;
  phase : phase;
  node : int;
  part : int;
  start_ts : float;
  mutable end_ts : float;
  mutable notes : (float * string) list;
}

type trace = {
  trace_id : int;
  txn_id : int;
  mutable spans : span list;
  mutable n_spans : int;
  mutable aborts : int;
  mutable ok : bool;
  mutable duration : float;
}

type policy = All | Every of int | Slowest of int | On_abort

type t = {
  pol : policy;
  span_cap : int;
  mutable n_started : int;
  mutable n_sampled : int;
  mutable n_finished : int;
  mutable next_trace_id : int;
  (* For [Slowest k]: ascending by (duration, trace_id) so the head is
     the first evicted. Otherwise insertion order (ascending trace id). *)
  mutable kept : trace list;
  mutable n_kept : int;
  (* Cluster-level instant events (fault injections, elections…):
     (ts, node, label), newest first; node -1 = cluster-wide. *)
  mutable rev_instants : (float * int * string) list;
}

type ctx = { tracer : t; data : trace; span : span }

(* Retention bound for [All], [Every] and [On_abort]. *)
let max_keep = 10_000

let create ?(policy = Slowest 10) ?(span_cap = 4096) () =
  {
    pol = policy;
    span_cap;
    n_started = 0;
    n_sampled = 0;
    n_finished = 0;
    next_trace_id = 0;
    kept = [];
    n_kept = 0;
    rev_instants = [];
  }

let policy t = t.pol
let started t = t.n_started
let sampled t = t.n_sampled
let finished t = t.n_finished

let retained t =
  List.sort (fun a b -> compare a.trace_id b.trace_id) t.kept

let instant ?(node = -1) ~ts t name = t.rev_instants <- (ts, node, name) :: t.rev_instants

let instants t =
  List.stable_sort
    (fun (a, _, _) (b, _, _) -> compare a b)
    (List.rev t.rev_instants)

let is_open s = s.end_ts = neg_infinity
let span_duration s = if is_open s then 0.0 else s.end_ts -. s.start_ts

let spans_in_order data =
  let arr = Array.of_list data.spans in
  let n = Array.length arr in
  (* spans is newest-first and ids are 0..n-1: reverse into id order. *)
  Array.init n (fun i -> arr.(n - 1 - i))

let start_txn t ~ts ~txn_id =
  let take =
    match t.pol with
    | All | Slowest _ | On_abort -> true
    | Every n -> n <= 1 || t.n_started mod n = 0
  in
  t.n_started <- t.n_started + 1;
  if not take then None
  else (
    t.n_sampled <- t.n_sampled + 1;
    let root =
      {
        id = 0;
        parent = -1;
        name = "txn";
        phase = Scheduling;
        node = -1;
        part = -1;
        start_ts = ts;
        end_ts = neg_infinity;
        notes = [];
      }
    in
    let data =
      {
        trace_id = t.next_trace_id;
        txn_id;
        spans = [ root ];
        n_spans = 1;
        aborts = 0;
        ok = false;
        duration = 0.0;
      }
    in
    t.next_trace_id <- t.next_trace_id + 1;
    Some { tracer = t; data; span = root })

let child ?node ?part ?phase ~name ~ts octx =
  match octx with
  | None -> None
  | Some { tracer; data; span = parent } ->
      if data.n_spans >= tracer.span_cap then None
      else (
        let s =
          {
            id = data.n_spans;
            parent = parent.id;
            name;
            phase = (match phase with Some p -> p | None -> parent.phase);
            node = (match node with Some n -> n | None -> parent.node);
            part = (match part with Some p -> p | None -> parent.part);
            start_ts = ts;
            end_ts = neg_infinity;
            notes = [];
          }
        in
        data.spans <- s :: data.spans;
        data.n_spans <- data.n_spans + 1;
        Some { tracer; data; span = s })

let finish ~ts octx =
  match octx with
  | None -> ()
  | Some { span; _ } -> if is_open span then span.end_ts <- ts

let note ~ts msg octx =
  match octx with
  | None -> ()
  | Some { span; _ } -> span.notes <- (ts, msg) :: span.notes

let note_abort ~ts octx =
  match octx with
  | None -> ()
  | Some { data; span; _ } ->
      data.aborts <- data.aborts + 1;
      span.notes <- (ts, "abort") :: span.notes

(* Slowest-k reservoir: [kept] ascending by (duration, trace_id); evict
   the head (fastest) when over capacity. Deterministic tie-break on
   trace id keeps exports byte-identical across identical runs. *)
let insert_slowest t data k =
  let before (a : trace) (b : trace) =
    a.duration < b.duration
    || (a.duration = b.duration && a.trace_id < b.trace_id)
  in
  let rec ins = function
    | [] -> [ data ]
    | x :: rest -> if before data x then data :: x :: rest else x :: ins rest
  in
  t.kept <- ins t.kept;
  t.n_kept <- t.n_kept + 1;
  if t.n_kept > k then (
    (match t.kept with [] -> () | _ :: rest -> t.kept <- rest);
    t.n_kept <- t.n_kept - 1)

let finish_txn ~ts ~ok octx =
  match octx with
  | None -> ()
  | Some { tracer; data; span } ->
      if is_open span then span.end_ts <- ts;
      data.ok <- ok;
      data.duration <- span.end_ts -. span.start_ts;
      tracer.n_finished <- tracer.n_finished + 1;
      let keep_plain () =
        if tracer.n_kept < max_keep then (
          tracer.kept <- data :: tracer.kept;
          tracer.n_kept <- tracer.n_kept + 1)
      in
      (match tracer.pol with
      | All | Every _ -> keep_plain ()
      | On_abort -> if data.aborts > 0 then keep_plain ()
      | Slowest k -> insert_slowest tracer data (Stdlib.max 1 k))
