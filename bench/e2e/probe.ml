(* Calibration probe for wall-clock metrics.

   On a machine whose cores are shared with other tenants, their bursts
   slow a whole rep by 20-50% for seconds to a minute at a time, so a
   run's wall-clock metrics drift with the host, not the code. The
   probe is a fixed piece of simulator-shaped work (an event heap, a
   large live table of boxed records read at random, and per-event
   garbage for the minor and major GC) run in its own child before and
   after every measured rep. Wall-clock values are reported scaled by
   [ref_s] over the mean of the two probes around the rep, which
   cancels most of a burst: on a shared 2-core container, over 44
   groups of 5 reps, the spread over ten groups of the median wall of a
   rep fell from 0.08-0.10 to 0.03-0.04.

   The probe must not change with the simulator: it is this file's own
   code and calls nothing in the repository's libraries. *)

(* The probe's time on a quiet spell of the 2-core container the
   benchmark was built on; wall-clock metrics are reported in seconds
   of that machine. *)
let ref_s = 0.5

type record = { mutable v : int; mutable next : record option; pad : int array }

let events = 700_000
let live = 1_000_000

let work () =
  let st = Random.State.make [| 42 |] in
  let table = Array.init live (fun i -> { v = i; next = None; pad = Array.make 4 i }) in
  let cap = 1 lsl 16 in
  let heap = Array.make cap 0.0 and payload = Array.make cap 0 in
  let n = ref 0 in
  let push t p =
    let i = ref !n in
    incr n;
    while !i > 0 && heap.((!i - 1) / 2) > t do
      let parent = (!i - 1) / 2 in
      heap.(!i) <- heap.(parent);
      payload.(!i) <- payload.(parent);
      i := parent
    done;
    heap.(!i) <- t;
    payload.(!i) <- p
  in
  let pop () =
    let t = heap.(0) and p = payload.(0) in
    decr n;
    let last_t = heap.(!n) and last_p = payload.(!n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !n then sifting := false
      else
        let c = if l + 1 < !n && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < last_t then (
          heap.(!i) <- heap.(c);
          payload.(!i) <- payload.(c);
          i := c)
        else sifting := false
    done;
    heap.(!i) <- last_t;
    payload.(!i) <- last_p;
    (t, p)
  in
  for i = 0 to 4095 do
    push (Random.State.float st 1.0) i
  done;
  let acc = ref 0 in
  for _ = 1 to events do
    let t, p = pop () in
    let k = Random.State.int st live in
    let r = table.(k) in
    acc := !acc + r.v + r.pad.(p land 3) + List.length (List.init 6 (fun j -> (j, p)));
    (* Every 8th event replaces a live record, so the major GC works. *)
    if p land 7 = 0 then table.(k) <- { v = p; next = Some r; pad = Array.make 4 p }
    else r.next <- None;
    push (t +. Random.State.float st 1.0) (((p * 31) + k) land (cap - 1))
  done;
  !acc

(* Seconds the probe's work takes in this process. *)
let time () =
  let t0 = Spans.now_ns () in
  ignore (Sys.opaque_identity (work ()));
  float_of_int (Spans.now_ns () - t0) /. 1e9
