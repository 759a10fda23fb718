(* Boundary spans for the traced rep.

   Every span is a call the benchmark itself makes into a layer's
   public entry point: the workload generator, the protocol's
   [submit]/[tick]/[drain], and the set-up that ends when [make]
   returns. All of them are children of the rep's run span, which
   covers the whole rep; whatever the run span's children do not
   cover is the event loop and every callback it dispatches (the
   [sim] remainder), which cannot be split further from outside.

   Aggregates are kept per layer for every span. Only the first
   [keep] spans are stored individually, in arrays allocated up front,
   for the Chrome trace written after the rep; recording a span
   allocates nothing. *)

type layer = Run | Setup | Gen | Submit | Tick | Drain

let layers = [| Run; Setup; Gen; Submit; Tick; Drain |]

let index = function
  | Run -> 0
  | Setup -> 1
  | Gen -> 2
  | Submit -> 3
  | Tick -> 4
  | Drain -> 5

let name = function
  | Run -> "run"
  | Setup -> "setup"
  | Gen -> "gen"
  | Submit -> "submit"
  | Tick -> "tick"
  | Drain -> "drain"

(* The dune library a boundary call enters. *)
let library = function
  | Run -> "harness"
  | Setup -> "store"
  | Gen -> "workload"
  | Submit | Drain -> "protocols"
  | Tick -> "core"

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Spans kept individually for the Chrome trace. *)
let keep = 20_000

type t = {
  layer : int array;
  start : int array;
  stop : int array;
  words : Float.Array.t;
  txn : int array;
  mutable stored : int;  (** slot 0 is the run span's *)
  count : int array;  (** per layer, as are [ns] and [alloc] *)
  ns : int array;
  alloc : Float.Array.t;
}

let create () =
  let nl = Array.length layers in
  {
    layer = Array.make keep 0;
    start = Array.make keep 0;
    stop = Array.make keep 0;
    words = Float.Array.make keep 0.0;
    txn = Array.make keep (-1);
    stored = 1;
    count = Array.make nl 0;
    ns = Array.make nl 0;
    alloc = Float.Array.make nl 0.0;
  }

let store t k i ~txn ~t0 ~t1 ~words =
  t.layer.(k) <- i;
  t.start.(k) <- t0;
  t.stop.(k) <- t1;
  Float.Array.set t.words k words;
  t.txn.(k) <- txn

let record t l ~txn ~t0 ~w0 =
  let t1 = now_ns () and w1 = Gc.minor_words () in
  let i = index l in
  t.count.(i) <- t.count.(i) + 1;
  t.ns.(i) <- t.ns.(i) + (t1 - t0);
  Float.Array.set t.alloc i (Float.Array.get t.alloc i +. (w1 -. w0));
  if l = Run then store t 0 i ~txn ~t0 ~t1 ~words:(w1 -. w0)
  else if t.stored < keep then (
    store t t.stored i ~txn ~t0 ~t1 ~words:(w1 -. w0);
    t.stored <- t.stored + 1)

let count t l = t.count.(index l)
let total_ns t l = t.ns.(index l)
let words t l = Float.Array.get t.alloc (index l)

(* Self time: a span's time minus the time its children cover. Only
   the run span has children, and they never nest in one another (each
   boundary call returns before the engine dispatches the next event),
   so their sum is the covered time. *)
let self_ns t l =
  match l with
  | Run -> Array.fold_left (fun acc c -> if c = Run then acc else acc - total_ns t c) (total_ns t Run) layers
  | _ -> total_ns t l

let self_share t l = float_of_int (self_ns t l) /. float_of_int (max 1 (total_ns t Run))

(* Chrome trace_event JSON: one complete event per stored span, one row
   per layer, and the per-layer aggregate as trace metadata. *)
let chrome t ~label =
  let open Lion_perf.Report in
  let int i = Num (float_of_int i) in
  let us ns = Num (float_of_int ns /. 1000.0) in
  let origin = t.start.(0) in
  let thread l =
    Obj
      [ ("ph", Str "M"); ("name", Str "thread_name"); ("pid", int 1); ("tid", int (index l));
        ("args", Obj [ ("name", Str (Printf.sprintf "%s (%s)" (name l) (library l))) ]) ]
  in
  let span k =
    let l = layers.(t.layer.(k)) in
    Obj
      [ ("ph", Str "X"); ("name", Str (name l)); ("cat", Str (library l)); ("pid", int 1);
        ("tid", int (index l)); ("ts", us (t.start.(k) - origin));
        ("dur", us (t.stop.(k) - t.start.(k)));
        ( "args",
          Obj
            [ ("txn", int t.txn.(k)); ("minor_words", Num (Float.Array.get t.words k));
              ("parent", if k = 0 then Null else Str "run") ] ) ]
  in
  let aggregate l =
    ( name l,
      Obj
        [ ("library", Str (library l)); ("spans", int (count t l)); ("total_ns", int (total_ns t l));
          ("self_ns", int (self_ns t l)); ("self_share", Num (self_share t l));
          ("minor_words", Num (words t l)) ] )
  in
  Obj
    [
      ("displayTimeUnit", Str "ns");
      ("traceEvents", Arr (List.map thread (Array.to_list layers) @ List.init t.stored span));
      ( "metadata",
        Obj
          [ ("workload", Str label); ("spans_stored", int t.stored);
            ("layers", Obj (List.map aggregate (Array.to_list layers))) ] );
    ]
