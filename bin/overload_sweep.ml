(* Offered-load sweep and metastable-failure repro driver
   (docs/OVERLOAD.md):

     dune exec bin/overload_sweep.exe                    # full sweep -> overload/
     dune exec bin/overload_sweep.exe -- --smoke         # CI-sized run
     dune exec bin/overload_sweep.exe -- --smoke --assert-budget-wins

   Writes overload/sweep.csv (throughput/goodput/p99 vs offered load,
   for lion/star/2pc, protected and unprotected) and
   overload/metastable.csv (per-second commit series for the
   unprotected vs protected metastable runs).

   --assert-budget-wins exits non-zero unless, at 1.5x saturation,
   goodput with retry budgets/breakers/deadlines is at least as high as
   without them — the graceful-degradation regression gate. *)

module Overload = Lion_harness.Overload
module Export = Lion_harness.Export

let () =
  let smoke = ref false in
  let assert_budget = ref false in
  let out_dir = ref "overload" in
  let seed = ref 1 in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--assert-budget-wins" :: rest ->
        assert_budget := true;
        parse rest
    | "--out" :: dir :: rest ->
        out_dir := dir;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "unknown argument %s\n\
           usage: overload_sweep [--smoke] [--assert-budget-wins] [--out DIR] \
           [--seed N]\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = !seed in
  let scale = if !smoke then 0.25 else 1.0 in
  (* The smoke run trims the sweep to the decisive points: one below
     saturation, saturation, and 1.5x past it. *)
  let ratios =
    if !smoke then [ 0.75; 1.0; 1.5 ] else Overload.default_ratios
  in
  let protocols =
    if !smoke then [ Lion_harness.Protocols.get "2pc" ] else Overload.protocols
  in
  let sweeps =
    List.concat_map
      (fun protect ->
        List.map
          (Overload.sweep_one ~seed ~scale ~protect ~ratios)
          protocols)
      [ false; true ]
  in
  Overload.print_sweeps sweeps;
  let metas =
    Overload.metastable_pair ~seed ~scale:(if !smoke then 0.5 else 1.0) ()
  in
  Overload.print_metastable metas;
  (if Sys.file_exists !out_dir then ()
   else Sys.mkdir !out_dir 0o755);
  let sweep_path = Filename.concat !out_dir "sweep.csv" in
  let header, rows = Overload.sweep_rows sweeps in
  Export.write_csv ~path:sweep_path ~header ~rows;
  let meta_path = Filename.concat !out_dir "metastable.csv" in
  let mheader, mrows = Overload.metastable_rows metas in
  Export.write_csv ~path:meta_path ~header:mheader ~rows:mrows;
  Printf.printf "wrote %s and %s\n" sweep_path meta_path;
  if !assert_budget then (
    let goodput_at ~protect ratio =
      List.filter_map
        (fun (s : Overload.sweep) ->
          if s.Overload.protected_ = protect then
            List.find_opt
              (fun (p : Overload.point) -> p.Overload.ratio = ratio)
              s.Overload.points
            |> Option.map (fun (p : Overload.point) ->
                   p.Overload.result.Lion_harness.Runner.goodput)
          else None)
        sweeps
    in
    let unprot = goodput_at ~protect:false 1.5
    and prot = goodput_at ~protect:true 1.5 in
    let failures =
      List.concat
        (List.map2
           (fun u p ->
             Printf.printf
               "1.5x saturation goodput: %.1f unprotected vs %.1f protected\n" u p;
             (* Protection must not lose more than measurement noise. *)
             if p < 0.95 *. u then [ (u, p) ] else [])
           unprot prot)
    in
    if failures <> [] || unprot = [] then (
      Printf.printf "FAIL: retry budgets did not hold goodput at overload\n";
      exit 1)
    else Printf.printf "PASS: goodput with budgets >= without at 1.5x saturation\n")
