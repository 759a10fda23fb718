(* BENCH_*.json emission and regression gating.

   The file schema ("lion-bench/1") is stable: every scenario row
   carries the same fields whether it is a micro or an end-to-end
   scenario, so files from different dates diff cleanly and external
   tooling can plot a trajectory without per-scenario cases. The
   top-level "profile" field names the dune profile the run was built
   with; readers ignore it.

   Gating against a committed baseline separates machine-independent
   metrics from wall-time ones:

   - minor words are a property of the compiled program, not the
     machine: compared raw, > 30% growth fails. Scenarios that count
     transactions compare words per transaction, so a change that
     removes events from a transaction is not read as a regression;
     the others compare words per event.
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

(* Minor words per transaction, or per event when [per_txn] is false.
   A run that commits nothing allocates infinitely much per
   transaction. *)
let alloc_rate ~per_txn (r : Scenario.result) =
  if not per_txn then r.Scenario.minor_words_per_event
  else if r.Scenario.txns_per_op = 0 then infinity
  else r.Scenario.minor_words_per_op /. float_of_int r.Scenario.txns_per_op

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
          (* The baseline's row decides the unit: per transaction when
             it counts transactions. A row with no allocation (or no
             events) is not gated. *)
          let per_txn = b.Scenario.txns_per_op > 0 in
          let base = alloc_rate ~per_txn b in
          if base > 0.0 then (
            let cur = alloc_rate ~per_txn c in
            if cur > (base *. alloc_slack) +. 0.5 then
              fail "%s: minor-words/%s %.2f exceeds baseline %.2f (+30%% slack)"
                c.Scenario.name (if per_txn then "txn" else "event") cur base);
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

(* ---- trajectory -------------------------------------------------- *)

(* A point is [BENCH_<date>.json], or [BENCH_<date>-<k>.json] for the
   k-th point of a day: its label and its place in the trajectory. *)
let history_prefix = "BENCH_"

let point_of_file path =
  let base = Filename.remove_extension (Filename.basename path) in
  let skip = String.length history_prefix in
  let label = String.sub base skip (String.length base - skip) in
  match String.split_on_char '-' label with
  | [ date; k ] -> (label, (date, int_of_string k))
  | _ -> (label, (label, 1))

let history_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:history_prefix f && Filename.check_suffix f ".json")
  |> List.map (Filename.concat dir)
  |> List.sort (fun a b -> compare (snd (point_of_file a)) (snd (point_of_file b)))

(* Every scenario's p50 at each point, divided by that point's own
   [engine_drain_seed] p50. The frozen seed engine never changes, so
   the ratio cancels the speed of the host that wrote the point and
   points from different machines line up. Rows follow first
   appearance; "-" marks a scenario a point did not run. A point
   without the probe cannot be normalised and raises [Parse_error]. *)
let history_table paths =
  let probe = "engine_drain_seed" in
  let points =
    List.map
      (fun path ->
        let rs = load path in
        match find probe rs with
        | Some p when p.Scenario.p50_ns > 0.0 -> (fst (point_of_file path), p.Scenario.p50_ns, rs)
        | _ -> raise (Parse_error (path ^ ": no " ^ probe ^ " probe")))
      paths
  in
  let names =
    List.concat_map (fun (_, _, rs) -> List.map (fun (r : Scenario.result) -> r.Scenario.name) rs) points
    |> List.fold_left (fun acc n -> if n = probe || List.mem n acc then acc else n :: acc) []
    |> List.rev
  in
  let t =
    Lion_kernel.Table.create ~title:("p50 / " ^ probe ^ " p50, per trajectory point")
      ~columns:("scenario" :: List.map (fun (label, _, _) -> label) points)
  in
  Lion_kernel.Table.add_row t
    ("probe p50 ms" :: List.map (fun (_, p, _) -> Printf.sprintf "%.1f" (p /. 1e6)) points);
  List.iter
    (fun name ->
      Lion_kernel.Table.add_row t
        (name
        :: List.map
             (fun (_, p, rs) ->
               match find name rs with
               | Some r -> Printf.sprintf "%.4f" (r.Scenario.p50_ns /. p)
               | None -> "-")
             points))
    names;
  Lion_kernel.Table.render t
