(* lion elastic: the elastic-membership experiment (docs/MEMBERSHIP.md).

     lion elastic            # full 30 s diurnal cycle
     lion elastic --smoke    # 10 s CI-sized run

   Exits non-zero unless the run completed at least one join and one
   decommission under load with no stale replication delivery applied
   — the acceptance gate for the membership machinery. *)

open Cmdliner

let run smoke seed =
  let r = Lion_harness.Elastic.run ~seed ~smoke () in
  Lion_harness.Elastic.print_report r;
  if r.Lion_harness.Elastic.joins = 0 then (
    Printf.eprintf "FAIL: no node joined during the ramp\n";
    1)
  else if r.Lion_harness.Elastic.decommissions = 0 then (
    Printf.eprintf "FAIL: no decommission completed during the ramp-down\n";
    1)
  else (
    Printf.printf "elastic scale OK\n";
    0)

let cmd =
  Cmd.v
    (Cmd.info "elastic" ~doc:"Forecast-driven node join and decommission under load")
    Term.(const run $ Terms.smoke $ Terms.seed ())
