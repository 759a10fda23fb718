(* Orchestration: the correctness gate, reps in fresh child processes,
   the reported values with their quartiles, and the printed and JSON
   reports.

   For each workload: a calm audit (cells only), one discarded warm-up
   rep, then measured reps until [seconds] have passed since the
   warm-up began and at least [min_reps] have run, then with [trace]
   one traced rep. A calibration probe runs before the first measured
   rep and after each one. Measured rep [i] runs seed
   [seed + 1000 * i]: simulated outcomes vary from seed to seed (Lion's
   plan after two rounds most of all), so a run reports simulated
   metrics, and the wall time of the simulated work, as the mean over
   its first [seeds_per_run] seeds, a fixed set that depends on [seed]
   alone. Other wall-clock and GC metrics are medians over every
   measured rep. The warm-up and traced reps rerun rep 0's seed and
   must reproduce its simulated results exactly. *)

module Json = Lion_perf.Report

let seeds_per_run = 3
let rep_seed seed i = seed + (1000 * i)

type stats = { value : float; p25 : float; p75 : float; n : int }

let stats ~mean values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let q p = Lion_kernel.Stats.percentile_of_sorted a p in
  let value = if mean then Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) else q 50.0 in
  { value; p25 = q 25.0; p75 = q 75.0; n = Array.length a }

type check = { check : string; ok : bool; detail : string }

type result = {
  workload : string;
  checks : check list;
  reps : int;
  attempted : int;
  failed : int;
  metrics : (Catalog.metric * stats) list;
}

let correct r = List.for_all (fun c -> c.ok) r.checks

(* ---- one rep ------------------------------------------------------- *)

(* Per-layer numbers of the traced rep, from its boundary spans. *)
let trace_values (rep : Cells.rep) sp =
  let open Spans in
  let per l x = Cells.ratio x (float_of_int (count sp l)) in
  let ns l = float_of_int (total_ns sp l) in
  let events = Cells.value rep "sim.events_per_txn" *. Cells.value rep "attempted" in
  [
    ("workload.gen_ns", per Gen (ns Gen));
    ("workload.gen_words", per Gen (words sp Gen));
    ("workload.self_share", self_share sp Gen);
    ("protocols.submit_ns", per Submit (ns Submit));
    ("protocols.submit_words", per Submit (words sp Submit));
    ("protocols.self_share", self_share sp Submit +. self_share sp Drain);
    ("protocols.drain_s", ns Drain /. 1e9);
    ("core.tick_ms", per Tick (ns Tick) /. 1e6);
    ("core.tick_words", per Tick (words sp Tick));
    ("core.self_share", self_share sp Tick);
    ("sim.self_share", self_share sp Run);
    ("sim.ns_per_event", Cells.ratio (float_of_int (self_ns sp Run)) events);
  ]

(* ---- JSON text ----------------------------------------------------- *)

let rec to_string = function
  | Json.Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" (Json.json_escape k) (to_string v)) kvs)
      ^ "}"
  | Json.Arr vs -> "[" ^ String.concat ", " (List.map to_string vs) ^ "]"
  | Json.Str s -> "\"" ^ Json.json_escape s ^ "\""
  | Json.Num f when Float.is_finite f -> Json.num f
  | Json.Num _ | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b

let cli_path () =
  Filename.concat (Filename.dirname (Unix.realpath Sys.executable_name)) Cli_path.relative

(* Runs one rep in this process. *)
let run_rep ~out_dir (w : Cells.workload) ~seed ~trace =
  match w.kind with
  | Cells.Cell c ->
      let spans = if trace then Some (Spans.create ()) else None in
      let rep = Cells.run_cell ?spans c ~seed in
      (match spans with
      | None -> rep
      | Some sp ->
          Out_channel.with_open_bin
            (Filename.concat out_dir (w.name ^ ".trace.json"))
            (fun oc -> output_string oc (to_string (Spans.chrome sp ~label:w.name)));
          { rep with values = rep.values @ trace_values rep sp })
  | Cells.Sweep s -> Cells.run_sweep s ~cli:(cli_path ()) ~seed ~out_dir

let rep_json (rep : Cells.rep) =
  Json.Obj
    [
      ("fingerprint", Json.Str rep.fingerprint);
      ("values", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) rep.values));
    ]

let rep_of_json j =
  match (Json.field "fingerprint" j, Json.field "values" j) with
  | Some (Json.Str fingerprint), Some (Json.Obj kvs) ->
      {
        Cells.fingerprint;
        values =
          List.map (function k, Json.Num v -> (k, v) | k, _ -> (k, Float.nan)) kvs;
      }
  | _ -> failwith "malformed rep output"

(* Runs this executable with [args] in a fresh child and returns the
   last line it prints. *)
let child args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith ("child exited abnormally: " ^ String.concat " " args));
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  List.nth lines (List.length lines - 1)

(* Fresh child per rep: the same executable in [--rep] mode, printing
   the rep as one JSON line. *)
let spawn_rep ~out_dir (w : Cells.workload) ~seed ~trace =
  match w.kind with
  | Cells.Sweep _ -> run_rep ~out_dir w ~seed ~trace
  | Cells.Cell _ ->
      child
        ([ "--rep"; w.name; "--seed"; string_of_int seed; "--out"; out_dir ]
        @ if trace then [ "--trace" ] else [])
      |> Json.parse_json |> rep_of_json

let spawn_probe () = float_of_string (child [ "--probe" ])

(* A rep's wall-clock values in seconds of the probe's reference
   machine, given the mean [probe_s] of the probes run around it. *)
let calibrate ~probe_s (rep : Cells.rep) =
  let scale (k, v) =
    match k with
    | "setup_s" | "wall_s" -> (k, v *. Probe.ref_s /. probe_s)
    | "txn_per_wall_s" | "sim.events_per_wall_s" -> (k, v *. probe_s /. Probe.ref_s)
    | _ -> (k, v)
  in
  { rep with values = ("harness.probe_s", probe_s) :: List.map scale rep.values }

(* ---- one workload -------------------------------------------------- *)

let measure ?(min_reps = seeds_per_run) ?(seconds = 0.0) ~probe ~exec ~trace ~seed
    (w : Cells.workload) =
  let checks = ref [] in
  let check name ok detail = checks := { check = name; ok; detail } :: !checks in
  (match w.kind with
  | Cells.Cell c ->
      let ok, detail = Cells.audit c ~seed in
      check "calm-audit" ok (if ok then "serializable, replicas converge, liveness clean" else detail)
  | Cells.Sweep _ -> ());
  let is_cell = match w.kind with Cells.Cell _ -> true | Cells.Sweep _ -> false in
  let reps, traced =
    try
      let t0 = Spans.now_ns () in
      let elapsed () = float_of_int (Spans.now_ns () - t0) /. 1e9 in
      let (warm : Cells.rep) = exec ~seed ~trace:false in
      (* A probe runs before the first measured rep and after each one;
         each rep is calibrated by the mean of the two around it.
         [seconds] covers the warm-up, the probes and the measured reps.
         Past [min_reps], another rep runs only if one more of the last
         one's length still fits. *)
      let calibrated ~seed ~trace before =
        let r = exec ~seed ~trace in
        let after = probe () in
        (calibrate ~probe_s:((before +. after) /. 2.0) r, after)
      in
      let rec loop acc n last before =
        if n >= min_reps && elapsed () +. last > seconds then (List.rev acc, before)
        else
          let t = elapsed () in
          let r, after = calibrated ~seed:(rep_seed seed n) ~trace:false before in
          loop (r :: acc) (n + 1) (elapsed () -. t) after
      in
      let reps, last_probe = loop [] 0 0.0 (probe ()) in
      let traced =
        if trace && is_cell then Some (fst (calibrated ~seed ~trace:true last_probe)) else None
      in
      let same = (warm :: List.hd reps :: Option.to_list traced) in
      check "identical-sim-results"
        (List.for_all (fun (r : Cells.rep) -> r.fingerprint = warm.fingerprint) same)
        (Printf.sprintf "%d reps of seed %d" (List.length same) seed);
      (reps, traced)
    with e ->
      check "reps-ran" false (Printexc.to_string e);
      ([], None)
  in
  let sim_reps = List.filteri (fun i _ -> i < seeds_per_run) reps in
  let values name from =
    List.filter_map (fun (r : Cells.rep) -> List.assoc_opt name r.values) from
  in
  let total name = List.fold_left ( +. ) 0.0 (values name sim_reps) in
  if is_cell && reps <> [] then
    check "no-clamped-schedules" (total "sim.clamped_schedules" = 0.0) "Metrics.schedule_clamps";
  if reps <> [] then
    check "no-retries-or-timeouts"
      (total "sim.retries" = 0.0 && total "sim.timeouts" = 0.0)
      "calm runs lose no message";
  let wall = stats ~mean:false (match values "wall_s" reps with [] -> [ 0.0 ] | vs -> vs) in
  let metric (m : Catalog.metric) =
    let vs =
      match m.name with
      | "harness.trace_overhead" ->
          (* Against rep 0, whose seed the traced rep reruns: the other
             reps do different amounts of work. *)
          let untraced = Cells.value (List.hd reps) "wall_s" in
          [ Option.fold ~none:0.0 ~some:(fun r -> Cells.ratio (Cells.value r "wall_s") untraced -. 1.0) traced ]
      | "harness.rep_spread" -> [ Cells.ratio (wall.p75 -. wall.p25) wall.value ]
      | name -> (
          let from =
            match m.source with
            | Catalog.Sim | Catalog.Work -> sim_reps
            | Catalog.Clock -> reps
            | Catalog.Trace -> Option.to_list traced
          in
          (* The sweep's opaque child has no spans or accessors to read. *)
          match values name from with [] -> [ 0.0 ] | vs -> vs)
    in
    (m, stats ~mean:(m.source = Catalog.Sim || m.source = Catalog.Work) vs)
  in
  let metrics = if reps = [] then [] else List.map metric Catalog.all in
  check "finite-metrics"
    (List.for_all (fun (_, s) -> Float.is_finite s.value) metrics)
    "every metric is a finite number";
  {
    workload = w.name;
    checks = List.rev !checks;
    reps = List.length reps;
    attempted = int_of_float (total "attempted");
    failed = int_of_float (total "failed");
    metrics;
  }

(* ---- reports ------------------------------------------------------- *)

let fmt v =
  if v = 0.0 then "0"
  else if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let print_result ~trace r =
  let t =
    Lion_kernel.Table.create
      ~title:(Printf.sprintf "%s (%d measured reps)" r.workload r.reps)
      ~columns:[ "metric"; "unit"; "value"; "p25"; "p75"; "better"; "bound" ]
  in
  List.iter
    (fun ((m : Catalog.metric), s) ->
      if trace || m.source <> Catalog.Trace then
        Lion_kernel.Table.add_row t
          [ m.name; m.unit; fmt s.value; fmt s.p25; fmt s.p75; Catalog.better_name m.better;
            (if m.bound > 0.0 then Printf.sprintf "%g" m.bound else "") ])
    r.metrics;
  Lion_kernel.Table.print t;
  List.iter
    (fun c -> Printf.printf "check %-24s %s  %s\n" c.check (if c.ok then "ok" else "FAIL") c.detail)
    r.checks;
  print_newline ()

(* The last line of a run: end-to-end metrics untraced, per-layer
   metrics traced. Names are prefixed with the workload when a run
   covers more than one. *)
let summary_json ~trace results =
  let prefix r = match results with [ _ ] -> "" | _ -> r.workload ^ "." in
  let wanted (m : Catalog.metric) = if trace then m.bound = 0.0 else m.bound > 0.0 in
  Json.Obj
    [
      ("correct", Json.Bool (List.for_all correct results));
      ("attempted", Json.Num (float_of_int (List.fold_left (fun a r -> a + r.attempted) 0 results)));
      ("failed", Json.Num (float_of_int (List.fold_left (fun a r -> a + r.failed) 0 results)));
      ( "metrics",
        Json.Obj
          (List.concat_map
             (fun r ->
               List.filter_map
                 (fun ((m : Catalog.metric), s) ->
                   if wanted m then
                     Some
                       ( prefix r ^ m.name,
                         Json.Obj [ ("value", Json.Num s.value); ("unit", Json.Str m.unit) ] )
                   else None)
                 r.metrics)
             results) );
    ]

(* Everything a run measured, for --json FILE. *)
let report_json ~seed results =
  Json.Obj
    [
      ("seed", Json.Num (float_of_int seed));
      ( "workloads",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.Str r.workload);
                   ("correct", Json.Bool (correct r));
                   ("reps", Json.Num (float_of_int r.reps));
                   ( "checks",
                     Json.Obj (List.map (fun c -> (c.check, Json.Bool c.ok)) r.checks) );
                   ( "metrics",
                     Json.Obj
                       (List.map
                          (fun ((m : Catalog.metric), s) ->
                            ( m.name,
                              Json.Obj
                                [
                                  ("unit", Json.Str m.unit);
                                  ("value", Json.Num s.value);
                                  ("p25", Json.Num s.p25);
                                  ("p75", Json.Num s.p75);
                                  ("n", Json.Num (float_of_int s.n));
                                ] ))
                          r.metrics) );
                 ])
             results) );
    ]

(* ---- command line -------------------------------------------------- *)

type opts = {
  seed : int;
  only : string list;
  trace : bool;
  json : string option;
  list : bool;
  seconds : float;
  rep : string option;  (** internal: run one rep and print it *)
  probe : bool;  (** internal: time the calibration probe and print it *)
  out : string;
}

let usage =
  "usage: lionbench [--seed N] [--only a,b | --workload a] [--trace [0|1]] [--seconds S] \
   [--json FILE] [--list]"

exception Usage of string

let parse argv =
  let int_arg f v = match int_of_string_opt v with Some n -> f n | None -> raise (Usage ("not an integer: " ^ v)) in
  let rec go o = function
    | [] -> o
    | "--seed" :: v :: rest -> go (int_arg (fun seed -> { o with seed }) v) rest
    | ("--only" | "--workload") :: v :: rest ->
        go { o with only = o.only @ String.split_on_char ',' v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some seconds -> go { o with seconds } rest
        | None -> raise (Usage ("not a number: " ^ v)))
    | "--json" :: v :: rest -> go { o with json = Some v } rest
    | "--list" :: rest -> go { o with list = true } rest
    | "--rep" :: v :: rest -> go { o with rep = Some v } rest
    | "--probe" :: rest -> go { o with probe = true } rest
    | "--out" :: v :: rest -> go { o with out = v } rest
    | a :: _ -> raise (Usage ("unknown or incomplete argument " ^ a))
  in
  let o =
    go
      { seed = 1; only = []; trace = false; json = None; list = false; seconds = 0.0; rep = None;
        probe = false; out = Filename.concat "bench" (Filename.concat "e2e" "out") }
      (List.tl (Array.to_list argv))
  in
  match List.filter (fun n -> Cells.find n = None) (o.only @ Option.to_list o.rep) with
  | [] -> o
  | bad ->
      raise
        (Usage
           (Printf.sprintf "unknown workload %s; valid names: %s" (String.concat "," bad)
              (String.concat ", " Cells.names)))

let rec mkdir_p d =
  if not (Sys.file_exists d) then (
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755)

let main argv =
  match parse argv with
  | exception Usage msg ->
      prerr_endline msg;
      prerr_endline usage;
      2
  | o when o.probe ->
      Printf.printf "%.17g\n" (Probe.time ());
      0
  | o when o.list ->
      List.iter (fun (w : Cells.workload) -> Printf.printf "%-16s %s\n" w.name w.why) Cells.workloads;
      0
  | o -> (
      mkdir_p o.out;
      match o.rep with
      | Some name ->
          let w = Option.get (Cells.find name) in
          print_endline (to_string (rep_json (run_rep ~out_dir:o.out w ~seed:o.seed ~trace:o.trace)));
          0
      | None ->
          let selected =
            if o.only = [] then Cells.workloads
            else List.filter_map Cells.find o.only
          in
          let results =
            List.map
              (fun (w : Cells.workload) ->
                let r =
                  measure ~seconds:o.seconds ~trace:o.trace ~seed:o.seed ~probe:spawn_probe
                    ~exec:(spawn_rep ~out_dir:o.out w) w
                in
                print_result ~trace:o.trace r;
                r)
              selected
          in
          Option.iter
            (fun path ->
              Out_channel.with_open_bin path (fun oc ->
                  output_string oc (to_string (report_json ~seed:o.seed results));
                  output_char oc '\n'))
            o.json;
          print_endline (to_string (summary_json ~trace:o.trace results));
          if List.for_all correct results then 0 else 1)
