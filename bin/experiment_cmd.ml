(* lion experiment: run named paper experiments (or "all") at a scale.

   Each experiment's wall time goes to stderr so stdout stays
   deterministic for a given (seed, scale).

   [--trace] hands the experiment a trace sink: every Runner.run inside
   it gets a tracer retaining its 5 slowest transactions; for each run,
   in cell order, a Chrome/Perfetto trace file lands in traces/ and a
   critical-path summary prints to stdout. *)

open Cmdliner
module Experiments = Lion_harness.Experiments

let trace_sink () =
  (try Unix.mkdir "traces" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let counter = ref 0 in
  {
    Lion_harness.Runner.fresh =
      (fun () -> Lion_trace.Trace.create ~policy:(Lion_trace.Trace.Slowest 5) ());
    emit =
      (fun t ->
        incr counter;
        let path = Printf.sprintf "traces/run-%03d.json" !counter in
        Lion_trace.Chrome.write ~path ~label:path
          ~instants:(Lion_trace.Trace.instants t)
          (Lion_trace.Trace.retained t);
        Lion_trace.Report.print ~top:3 ~label:path t);
  }

let run selected scale trace =
  let trace = if trace then Some (trace_sink ()) else None in
  List.iter
    (fun (id, desc, f) ->
      Printf.printf ">>> %s — %s\n%!" id desc;
      let t0 = Unix.gettimeofday () in
      f ?trace scale;
      Printf.eprintf "    [%s completed in %.1fs wall]\n%!" id (Unix.gettimeofday () -. t0))
    (List.concat selected);
  0

let cmd =
  let ids =
    let choices =
      ("all", Experiments.registry)
      :: List.map (fun ((id, _, _) as e) -> (id, [ e ])) Experiments.registry
    in
    Arg.(non_empty & pos_all (enum choices) [] & info [] ~docv:"ID")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ] ~doc:"Write each run's 5 slowest transactions to traces/run-NNN.json.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run named paper experiments (fig6 .. fig14, table1, ...) or all")
    Term.(const run $ ids $ Terms.scale 1.0 $ trace)
