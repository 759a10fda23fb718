(* lion perf: runs the registered scenarios under bechamel and writes a
   schema-stable BENCH_<date>.json; with --baseline it also gates the
   fresh run against a committed baseline file (docs/PERF.md); with
   --history it prints the committed trajectory instead. Exit codes:
   0 ok, 1 gate failure, 2 unreadable baseline or trajectory, 124
   usage. *)

open Cmdliner
module Scenario = Lion_perf.Scenario
module Registry = Lion_perf.Registry
module Report = Lion_perf.Report

let today () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d%02d%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let scenario_conv =
  let parse name =
    Option.to_result
      ~none:
        (`Msg
          (Printf.sprintf "unknown scenario %S; valid: %s" name
             (String.concat ", " (Registry.names ()))))
      (Registry.find (String.trim name))
  in
  Arg.conv (parse, fun ppf (s : Scenario.spec) -> Format.pp_print_string ppf s.Scenario.name)

let history_dir = "bench/history"

let run quick out only baseline list history =
  if list then (
    List.iter print_endline (Registry.names ());
    0)
  else if history then (
    match Report.history_table (Report.history_files history_dir) with
    | exception (Sys_error e | Report.Parse_error e) ->
        Printf.eprintf "cannot read the trajectory: %s\n" e;
        2
    | table ->
        print_string table;
        0)
  else
    let scenarios = if only = [] then Registry.all else only in
    Printf.printf "build profile: %s\n%!" Lion_perf.Build_profile.name;
    let results =
      List.map
        (fun (s : Scenario.spec) ->
          Printf.printf "running %-18s %s ...%!" s.Scenario.name s.Scenario.descr;
          let t0 = Unix.gettimeofday () in
          let r = Scenario.measure ~quick s in
          Printf.printf " %.0f ns/op (p50), %d samples, %.1fs\n%!"
            r.Scenario.p50_ns r.Scenario.samples
            (Unix.gettimeofday () -. t0);
          r)
        scenarios
    in
    let path = if out = "" then Printf.sprintf "BENCH_%s.json" (today ()) else out in
    Report.write ~path ~date:(today ()) ~quick results;
    Printf.printf "wrote %s\n" path;
    List.iter
      (fun (r : Scenario.result) ->
        Printf.printf
          "  %-18s %12.0f ev/s %10.0f txn/s %8.2f w/ev  p50 %.0f ns/op\n"
          r.Scenario.name r.Scenario.events_per_sec r.Scenario.txns_per_sec
          r.Scenario.minor_words_per_event r.Scenario.p50_ns)
      results;
    (match Report.drain_speedup results with
    | Some s -> Printf.printf "engine drain speedup vs seed: %.2fx\n" s
    | None -> ());
    if baseline = "" then 0
    else
      match Report.load baseline with
      | exception (Sys_error e | Report.Parse_error e) ->
          Printf.eprintf "cannot load baseline: %s\n" e;
          2
      | base ->
          let wall_gates = Sys.getenv_opt "LION_PERF_NO_WALL_GATE" = None in
          if not wall_gates then
            Printf.printf "wall-time gates disabled (LION_PERF_NO_WALL_GATE)\n";
          let notes, failures =
            Report.compare_against ~baseline:base ~current:results ~wall_gates
          in
          List.iter (fun n -> Printf.printf "note: %s\n" n) notes;
          if failures <> [] then (
            List.iter (fun f -> Printf.printf "FAIL: %s\n" f) failures;
            1)
          else (
            Printf.printf "all perf gates pass against %s\n" baseline;
            0)

let cmd =
  let open Arg in
  let quick = value & flag & info [ "quick" ] ~doc:"Fewer samples (CI smoke mode)." in
  let only =
    value
    & opt (list scenario_conv) []
    & info [ "only" ] ~docv:"NAMES" ~doc:"Comma-separated scenario subset to run."
  in
  let baseline =
    value & opt string ""
    & info [ "baseline" ] ~docv:"FILE" ~doc:"Gate the fresh run against this bench file."
  in
  let list = value & flag & info [ "list" ] ~doc:"List scenario names and exit." in
  let history =
    value & flag
    & info [ "history" ]
        ~doc:
          "Print every scenario's p50 at each point of bench/history, divided by that point's \
           engine_drain_seed p50, and exit."
  in
  Cmd.v
    (Cmd.info "perf" ~doc:"Run the perf scenarios under bechamel and gate against a baseline")
    Term.(
      const run $ quick
      $ Terms.out ~docv:"FILE" ~doc:"Output path (default BENCH_<date>.json)." ""
      $ only $ baseline $ list $ history)
