(* BENCH_*.json emission and regression gating.

   The file schema ("lion-bench/1") is stable: every scenario row
   carries the same fields whether it is a micro or an end-to-end
   scenario, so files from different dates diff cleanly and external
   tooling can plot a trajectory without per-scenario cases. The
   top-level "profile" field names the dune profile the run was built
   with; readers ignore it.

   Gating against a committed baseline separates machine-independent
   metrics from wall-time ones:

   - minor-words/event is a property of the compiled program, not the
     machine: compared raw, > 30% growth fails.
   - the drain speedup (engine_drain vs engine_drain_seed events/sec,
     both measured in the same process) is a ratio of two runs on the
     same machine: compared raw against its floor (3x). A run with
     neither scenario skips it with a note; a run with only one fails.
   - wall-time p50s are machine-dependent: the frozen seed engine never
     changes, so the ratio of its p50 between the current run and the
     baseline file estimates how much faster or slower this machine is
     than the one that wrote the baseline, and every other scenario's
     wall gate is calibrated by that factor before the 30% test.
     LION_PERF_NO_WALL_GATE=1 skips the wall gates entirely (for
     wildly throttled CI runners); the allocation and speedup gates
     still apply. Scenarios that run on two domains skip their wall
     gate on a one-core host, where the domains take turns. *)

let schema = "lion-bench/1"
let alloc_slack = 1.30
let wall_slack = 1.30
let drain_speedup_floor = 3.0

(* Scenarios whose op runs cells on two domains at once. *)
let two_domain_scenarios = [ "sweep_pool" ]

(* The JSON reader and escape live in [Lion_kernel.Json]; they are
   re-exported here under the names the benchmark harness reads them
   by. *)
include Lion_kernel.Json

let parse_json = parse
let json_escape = escape

(* ---- emission ---------------------------------------------------- *)

let num f =
  (* %.17g round-trips any float; trim the common integral case. *)
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let scenario_json (r : Scenario.result) =
  Printf.sprintf
    {|    { "name": "%s",
      "descr": "%s",
      "samples": %d,
      "events_per_op": %d,
      "txns_per_op": %d,
      "p50_ns": %s,
      "p99_ns": %s,
      "minor_words_per_op": %s,
      "events_per_sec": %s,
      "txns_per_sec": %s,
      "minor_words_per_event": %s }|}
    (json_escape r.Scenario.name) (json_escape r.Scenario.descr)
    r.Scenario.samples r.Scenario.events_per_op r.Scenario.txns_per_op
    (num r.Scenario.p50_ns) (num r.Scenario.p99_ns)
    (num r.Scenario.minor_words_per_op)
    (num r.Scenario.events_per_sec)
    (num r.Scenario.txns_per_sec)
    (num r.Scenario.minor_words_per_event)

let write ~path ~date ~quick results =
  let oc = open_out path in
  Printf.fprintf oc
    "{ \"schema\": \"%s\",\n\
    \  \"date\": \"%s\",\n\
    \  \"profile\": \"%s\",\n\
    \  \"quick\": %b,\n\
    \  \"scenarios\": [\n%s\n  ]\n}\n"
    schema (json_escape date) (json_escape Build_profile.name) quick
    (String.concat ",\n" (List.map scenario_json results));
  close_out oc

(* ---- loading a bench file back into Scenario.results ------------- *)

let scenario_of_json j : Scenario.result =
  {
    Scenario.name = get_str "name" j;
    descr = get_str "descr" j;
    samples = int_of_float (get_num "samples" j);
    events_per_op = int_of_float (get_num "events_per_op" j);
    txns_per_op = int_of_float (get_num "txns_per_op" j);
    p50_ns = get_num "p50_ns" j;
    p99_ns = get_num "p99_ns" j;
    minor_words_per_op = get_num "minor_words_per_op" j;
    events_per_sec = get_num "events_per_sec" j;
    txns_per_sec = get_num "txns_per_sec" j;
    minor_words_per_event = get_num "minor_words_per_event" j;
  }

let load path : Scenario.result list =
  let j = read_file path in
  (match field "schema" j with
  | Some (Str s) when s = schema -> ()
  | _ -> raise (Parse_error (Printf.sprintf "%s: not a %s file" path schema)));
  match field "scenarios" j with
  | Some (Arr rows) -> List.map scenario_of_json rows
  | _ -> raise (Parse_error (path ^ ": no scenarios array"))

(* ---- gating ------------------------------------------------------ *)

let find name rs = List.find_opt (fun r -> r.Scenario.name = name) rs

let drain_speedup rs =
  match (find "engine_drain" rs, find "engine_drain_seed" rs) with
  | Some d, Some s when s.Scenario.events_per_sec > 0.0 ->
      Some (d.Scenario.events_per_sec /. s.Scenario.events_per_sec)
  | _ -> None

(* Returns failure messages; empty list = all gates pass. Scenarios
   present on only one side are reported but do not fail the gate —
   adding a scenario must not require regenerating every baseline
   atomically (the baseline refresh lands in the same PR, but older
   BENCH_*.json files stay comparable). *)
let compare_against ~baseline ~current ~wall_gates =
  let failures = ref [] in
  let notes = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  (* machine-speed calibration from the frozen seed engine *)
  let calib =
    match (find "engine_drain_seed" baseline, find "engine_drain_seed" current) with
    | Some b, Some c when b.Scenario.p50_ns > 0.0 ->
        let f = c.Scenario.p50_ns /. b.Scenario.p50_ns in
        note "machine-speed calibration (seed engine p50 ratio): %.2fx" f;
        f
    | _ ->
        note "no seed-engine probe on both sides; wall gates uncalibrated";
        1.0
  in
  List.iter
    (fun (b : Scenario.result) ->
      match find b.Scenario.name current with
      | None -> note "scenario %s in baseline but not in current run" b.Scenario.name
      | Some c ->
          if b.Scenario.events_per_op > 0 && b.Scenario.minor_words_per_event > 0.0
          then (
            let limit = (b.Scenario.minor_words_per_event *. alloc_slack) +. 0.5 in
            if c.Scenario.minor_words_per_event > limit then
              fail
                "%s: minor-words/event %.2f exceeds baseline %.2f (+30%% slack)"
                c.Scenario.name c.Scenario.minor_words_per_event
                b.Scenario.minor_words_per_event);
          if
            wall_gates
            && List.mem b.Scenario.name two_domain_scenarios
            && Domain.recommended_domain_count () < 2
          then note "%s: wall gate skipped on a one-core host" b.Scenario.name
          else if wall_gates && b.Scenario.p50_ns > 0.0 then (
            let limit = b.Scenario.p50_ns *. calib *. wall_slack in
            if c.Scenario.p50_ns > limit then
              fail
                "%s: p50 %.0f ns/op exceeds calibrated baseline %.0f ns/op (+30%% slack)"
                c.Scenario.name c.Scenario.p50_ns (b.Scenario.p50_ns *. calib)))
    baseline;
  (* A run restricted to other scenarios ([--only]) has neither engine
     probe and gates no speedup; a run with one probe but not the other
     cannot be judged and fails. *)
  (match drain_speedup current with
  | Some s ->
      note "engine drain speedup vs frozen seed engine: %.2fx" s;
      if s < drain_speedup_floor then
        fail "engine_drain speedup %.2fx below required %.1fx" s
          drain_speedup_floor
  | None when find "engine_drain" current = None && find "engine_drain_seed" current = None
    ->
      note "drain speedup not gated: neither engine_drain nor engine_drain_seed ran"
  | None -> fail "cannot compute drain speedup: engine_drain(_seed) missing");
  (List.rev !notes, List.rev !failures)
