(* lion debug chaos: run Lion standard under a crash fault plan and
   print the per-second throughput and availability, plus the fault
   counters — the fastest way to watch failover, timeout/retry
   behaviour and recovery.

   [crashed] nodes (1, 2, ...) crash at [fail_s] (nodes 1..crashed)
   and rejoin at [recover_s].

   [--json] replaces the human-readable table with one JSON summary
   object on stdout — for scripts that diff or plot chaos runs. The
   default text output is untouched (CI diffs it byte-for-byte).

   The threshold flags turn the tool into a CI gate: the run records a
   consistency-audit history, and the exit status is non-zero if the
   serializability checker reports more than [--max-anomalies]
   (default: disabled) or any availability sample falls below
   [--min-availability] (default: disabled). *)

open Cmdliner
module Config = Lion_store.Config
module Engine = Lion_sim.Engine
module Fault = Lion_sim.Fault
module History = Lion_store.History
module Checker = Lion_audit.Checker
module Runner = Lion_harness.Runner
module Workloads = Lion_harness.Workloads

let run crashed fail_s recover_s total min_avail max_anomalies json =
  (* Node 0 stays up so the cluster always has a survivor. *)
  let crashed = min crashed (Config.default.Config.nodes - 1) in
  let plan =
    List.concat_map
      (fun node ->
        Fault.crash_recover ~node
          ~at:(Engine.seconds fail_s)
          ~downtime:(Engine.seconds (recover_s -. fail_s)))
      (List.init crashed (fun i -> i + 1))
  in
  let cfg = { Config.default with Config.fault_plan = plan } in
  let gate = min_avail <> None || max_anomalies <> None in
  (* Record a history only when a gate asked for it: recording off is
     the bit-for-bit-identical default. *)
  let history = if gate then Some (History.create ()) else None in
  let r =
    Runner.run ?history ~cfg
      ~make:(fun cl ->
        Lion_core.Standard.create ~name:"Lion"
          ~config:
            { Lion_core.Planner.default_config with Lion_core.Planner.predict = false }
          cl)
      ~gen:(Workloads.ycsb ~cross:0.5 cfg)
      { Runner.quick with warmup = 0.0; duration = total; tick_every = 1.0 }
  in
  let anomalies =
    Option.map
      (fun h ->
        let report = Checker.check (History.events h) in
        (report, List.length report.Checker.anomalies))
      history
  in
  if json then begin
    (* One machine-readable summary object; 1e-9 rounding keeps the
       encoding of floats stable across identical runs. *)
    let fl v = Printf.sprintf "%.9g" v in
    let series to_s arr =
      String.concat ","
        (List.filteri
           (fun i _ -> i < int_of_float total)
           (Array.to_list (Array.map to_s arr)))
    in
    Printf.printf
      "{\"crashed\":%d,\"fail_s\":%s,\"recover_s\":%s,\"total_s\":%s,\n\
      \ \"throughput_txn_s\":[%s],\n\
      \ \"availability\":[%s],\n\
      \ \"timeouts\":%d,\"retries\":%d,\"drops\":%d,\"unavail_s\":%s,\n\
      \ \"recovery_s\":%s,\"goodput_txn_s\":%s,\"anomalies\":%s}\n"
      crashed (fl fail_s) (fl recover_s) (fl total)
      (series (fun v -> fl v) r.Runner.throughput_series)
      (series (fun v -> fl v) r.Runner.availability)
      r.Runner.timeouts r.Runner.retries (Runner.count r Drops)
      (fl r.Runner.unavail_seconds)
      (if Float.is_finite r.Runner.time_to_recover then
         fl r.Runner.time_to_recover
       else "null")
      (fl r.Runner.goodput_under_fault)
      (match anomalies with None -> "null" | Some (_, n) -> string_of_int n)
  end
  else begin
    Printf.printf "second  k txn/s  availability\n";
    Array.iteri
      (fun i tput ->
        if i < int_of_float total then
          let a =
            if i < Array.length r.Runner.availability then r.Runner.availability.(i)
            else nan
          in
          Printf.printf "%6d  %7.1f  %.4f\n" (i + 1) (tput /. 1000.0) a)
      r.Runner.throughput_series;
    Printf.printf
      "timeouts %d  retries %d  drops %d  unavail %.1fs  recovery %s  goodput %.1fk\n"
      r.Runner.timeouts r.Runner.retries (Runner.count r Drops) r.Runner.unavail_seconds
      (if Float.is_finite r.Runner.time_to_recover then
         Printf.sprintf "%.0fs" r.Runner.time_to_recover
       else "not yet")
      (r.Runner.goodput_under_fault /. 1000.0)
  end;
  let failed = ref false in
  (match anomalies with
  | None -> ()
  | Some (report, n) ->
      if not json then
        Printf.printf "audit: %d events, %d anomalies\n" report.Checker.events n;
      Option.iter
        (fun max ->
          if n > max then (
            if not json then Format.printf "%a@." Checker.pp_report report;
            Printf.printf "FAIL: %d anomalies > --max-anomalies %d\n" n max;
            failed := true))
        max_anomalies);
  Option.iter
    (fun min_avail ->
      let lowest = Array.fold_left Stdlib.min 1.0 r.Runner.availability in
      if lowest < min_avail then (
        Printf.printf "FAIL: availability %.4f < --min-availability %.4f\n" lowest min_avail;
        failed := true))
    min_avail;
  if !failed then 1 else 0

let cmd =
  let open Arg in
  let crashed =
    value & pos 0 int 1 & info [] ~docv:"CRASHED" ~doc:"Nodes 1..CRASHED crash at FAIL_S."
  in
  let fail_s = value & pos 1 float 6.0 & info [] ~docv:"FAIL_S" ~doc:"Crash time (s)." in
  let recover_s =
    value & pos 2 float 16.0 & info [] ~docv:"RECOVER_S" ~doc:"Rejoin time (s)."
  in
  let total = value & pos 3 float 20.0 & info [] ~docv:"TOTAL_S" ~doc:"Run length (s)." in
  let min_avail =
    value
    & opt (some float) None
    & info [ "min-availability" ] ~docv:"F"
        ~doc:"Exit 1 if any availability sample falls below $(docv)."
  in
  let max_anomalies =
    value
    & opt (some int) None
    & info [ "max-anomalies" ] ~docv:"N"
        ~doc:"Record an audit history; exit 1 if the checker reports more than $(docv) anomalies."
  in
  let json =
    value & flag & info [ "json" ] ~doc:"Print one JSON summary object instead of the table."
  in
  Cmd.v
    (Cmd.info "chaos" ~doc:"Watch Lion fail over and recover from node crashes, second by second")
    Term.(const run $ crashed $ fail_s $ recover_s $ total $ min_avail $ max_anomalies $ json)
