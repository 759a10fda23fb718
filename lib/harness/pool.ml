(* Workers hand out cells through one atomic index, so the cells taken
   always form a prefix of the input: once a cell fails no new cell
   starts, but every cell before it has already been taken and runs to
   the end. The lowest failing index is therefore always recorded. *)

(* Several cells are live at once, so the heap is trimmed while the
   pool runs (tuned on two cores): a lower [space_overhead] (OCaml's
   default is 120), and a full major collection after every cell,
   which frees that cell's garbage before the worker grows its heap for
   the next one. The last collection, after the join, also hands the
   helpers' orphaned heap back to the caller for whatever runs next. *)
let pool_space_overhead = 40

let with_space_overhead f =
  let saved = Gc.get () in
  if saved.space_overhead > pool_space_overhead then
    Gc.set { saved with space_overhead = pool_space_overhead };
  Fun.protect f ~finally:(fun () ->
      Gc.set { (Gc.get ()) with space_overhead = saved.space_overhead })

let map ?(domains = Domain.recommended_domain_count ()) f xs =
  let cells = Array.of_list xs in
  let n = Array.length cells in
  let workers = Int.min domains n in
  if workers <= 1 then List.map f xs
  else (
    let results = Array.make n None in
    let next = Atomic.make 0 and failed = Atomic.make false in
    let rec work () =
      if not (Atomic.get failed) then (
        let i = Atomic.fetch_and_add next 1 in
        if i < n then (
          (results.(i) <-
             (match f cells.(i) with
             | r -> Some (Ok r)
             | exception e ->
                 let bt = Printexc.get_raw_backtrace () in
                 Atomic.set failed true;
                 Some (Error (e, bt))));
          Gc.full_major ();
          work ()))
    in
    with_space_overhead (fun () ->
        let helpers = List.init (workers - 1) (fun _ -> Domain.spawn work) in
        work ();
        List.iter Domain.join helpers;
        Gc.full_major ());
    Array.iter
      (function Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt | _ -> ())
      results;
    List.init n (fun i ->
        match results.(i) with Some (Ok r) -> r | _ -> assert false))
