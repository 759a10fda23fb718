(* Offered-load sweep and metastable-failure repro driver
   (docs/OVERLOAD.md):

     lion overload                              # full sweep -> overload/
     lion overload --smoke                      # CI-sized run
     lion overload --smoke --assert-budget-wins

   Writes overload/sweep.csv (throughput/goodput/p99 vs offered load,
   for lion/star/2pc, protected and unprotected) and
   overload/metastable.csv (per-second commit series for the
   unprotected vs protected metastable runs).

   --assert-budget-wins exits non-zero unless, at 1.5x saturation,
   goodput with retry budgets/breakers/deadlines is at least as high as
   without them — the graceful-degradation regression gate. *)

open Cmdliner
module Overload = Lion_harness.Overload
module Export = Lion_harness.Export

let run smoke assert_budget out_dir seed =
  let scale = if smoke then 0.25 else 1.0 in
  (* The smoke run trims the sweep to the decisive points: one below
     saturation, saturation, and 1.5x past it. *)
  let ratios =
    if smoke then [ 0.75; 1.0; 1.5 ] else Overload.default_ratios
  in
  let protocols =
    if smoke then [ Lion_harness.Protocols.get "2pc" ] else Overload.protocols
  in
  let sweeps = Overload.sweep ~seed ~scale ~ratios ~protocols [ false; true ] in
  Overload.print_sweeps sweeps;
  let metas =
    Overload.metastable_pair ~seed ~scale:(if smoke then 0.5 else 1.0) ()
  in
  Overload.print_metastable metas;
  (if Sys.file_exists out_dir then ()
   else Sys.mkdir out_dir 0o755);
  let sweep_path = Filename.concat out_dir "sweep.csv" in
  let header, rows = Overload.sweep_rows sweeps in
  Export.write_csv ~path:sweep_path ~header ~rows;
  let meta_path = Filename.concat out_dir "metastable.csv" in
  let mheader, mrows = Overload.metastable_rows metas in
  Export.write_csv ~path:meta_path ~header:mheader ~rows:mrows;
  Printf.printf "wrote %s and %s\n" sweep_path meta_path;
  if not assert_budget then 0
  else (
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
      1)
    else (
      Printf.printf "PASS: goodput with budgets >= without at 1.5x saturation\n";
      0))

let cmd =
  let assert_budget =
    Arg.(
      value & flag
      & info [ "assert-budget-wins" ]
          ~doc:
            "Exit 1 unless, at 1.5x saturation, goodput with retry budgets, breakers and \
             deadlines is at least as high as without them.")
  in
  Cmd.v
    (Cmd.info "overload" ~doc:"Offered-load sweep and metastable-failure repro")
    Term.(
      const run $ Terms.smoke $ assert_budget
      $ Terms.out ~docv:"DIR" ~doc:"Directory for sweep.csv and metastable.csv." "overload"
      $ Terms.seed ())
