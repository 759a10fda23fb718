(* BENCH_*.json emission and regression gating.

   The file schema ("lion-bench/1") is stable: every scenario row
   carries the same fields whether it is a micro or an end-to-end
   scenario, so files from different dates diff cleanly and external
   tooling can plot a trajectory without per-scenario cases.

   Gating against a committed baseline separates machine-independent
   metrics from wall-time ones:

   - minor-words/event is a property of the compiled program, not the
     machine: compared raw, > 30% growth fails.
   - the drain speedup (engine_drain vs engine_drain_seed events/sec,
     both measured in the same process) is a ratio of two runs on the
     same machine: compared raw against its floor (3x).
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

(* ---- emission ---------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

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
    "{ \"schema\": \"%s\",\n  \"date\": \"%s\",\n  \"quick\": %b,\n  \"scenarios\": [\n%s\n  ]\n}\n"
    schema (json_escape date) quick
    (String.concat ",\n" (List.map scenario_json results));
  close_out oc

(* ---- minimal JSON reader ----------------------------------------- *)

(* Just enough JSON to read files this module wrote (plus whitespace
   and field-order tolerance): objects, arrays, strings, numbers,
   true/false/null. No dependency on a JSON package. *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'; advance ()
          | '\\' -> Buffer.add_char b '\\'; advance ()
          | '/' -> Buffer.add_char b '/'; advance ()
          | 'n' -> Buffer.add_char b '\n'; advance ()
          | 't' -> Buffer.add_char b '\t'; advance ()
          | 'r' -> Buffer.add_char b '\r'; advance ()
          | 'b' -> Buffer.add_char b '\b'; advance ()
          | 'f' -> Buffer.add_char b '\012'; advance ()
          | 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (* ASCII range only — all this module ever emits. *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?'
          | _ -> fail "bad escape");
          go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (advance (); Obj [])
        else (
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); fields ((k, v) :: acc)
            | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields [])
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (advance (); Arr [])
        else (
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); items (v :: acc)
            | ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items [])
    | '"' -> Str (parse_string ())
    | 't' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "true" then (pos := !pos + 4; Bool true)
        else fail "bad literal"
    | 'f' ->
        if !pos + 5 <= n && String.sub s !pos 5 = "false" then (pos := !pos + 5; Bool false)
        else fail "bad literal"
    | 'n' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "null" then (pos := !pos + 4; Null)
        else fail "bad literal"
    | _ ->
        let start = !pos in
        let is_num_char c =
          (c >= '0' && c <= '9')
          || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
        in
        while !pos < n && is_num_char s.[!pos] do advance () done;
        if !pos = start then fail "unexpected character";
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  parse_json s

(* ---- loading a bench file back into Scenario.results ------------- *)

let field name = function
  | Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let get_num name j =
  match field name j with
  | Some (Num f) -> f
  | _ -> raise (Parse_error (Printf.sprintf "missing numeric field %S" name))

let get_str name j =
  match field name j with
  | Some (Str s) -> s
  | _ -> raise (Parse_error (Printf.sprintf "missing string field %S" name))

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
  (match drain_speedup current with
  | Some s ->
      note "engine drain speedup vs frozen seed engine: %.2fx" s;
      if s < drain_speedup_floor then
        fail "engine_drain speedup %.2fx below required %.1fx" s
          drain_speedup_floor
  | None -> fail "cannot compute drain speedup: engine_drain(_seed) missing");
  (List.rev !notes, List.rev !failures)
