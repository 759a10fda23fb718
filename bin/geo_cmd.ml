(* lion geo: the geo-replication experiment suite (docs/GEO.md).

   Runs the cross-region-ratio sweep for {Lion, Star, 2PC, EpochOCC}
   at 2 and 3 regions plus the goodput-under-WAN-partition run. Output
   is deterministic for a fixed seed — the geo-smoke CI job diffs two
   runs byte-for-byte. *)

open Cmdliner
module Geo = Lion_harness.Geo

let run smoke seed assert_crossover =
  let scale = if smoke then 0.25 else 1.0 in
  let rows2 = Geo.sweep ~seed ~scale ~regions:2 () in
  Geo.print_sweep ~regions:2 rows2;
  Geo.print_sweep ~regions:3 (Geo.sweep ~seed ~scale ~regions:3 ());
  Geo.print_partition (Geo.wan_partition ~seed ~scale ());
  if not assert_crossover then 0
  else if Geo.crossover_ok rows2 then (
    print_endline "crossover: OK (Lion wins at 0%, EpochOCC wins at 100%)";
    0)
  else (
    prerr_endline "crossover: FAILED (expected Lion ahead at 0% and EpochOCC ahead at 100%)";
    1)

let cmd =
  let assert_crossover =
    Arg.(
      value & flag
      & info [ "assert-crossover" ]
          ~doc:"Exit 1 unless Lion wins at 0% cross-region and EpochOCC wins at 100% (2 regions).")
  in
  Cmd.v
    (Cmd.info "geo" ~doc:"Cross-region ratio sweeps at 2 and 3 regions, and a WAN partition")
    Term.(const run $ Terms.smoke $ Terms.seed ~default:7 () $ assert_crossover)
