let top_slowest ?(k = 10) t =
  let by_slowest (a : Trace.trace) (b : Trace.trace) =
    match compare b.Trace.duration a.Trace.duration with
    | 0 -> compare a.Trace.trace_id b.Trace.trace_id
    | c -> c
  in
  let sorted = List.sort by_slowest (Trace.retained t) in
  List.filteri (fun i _ -> i < k) sorted

let pp_trace fmt (data : Trace.trace) =
  Format.fprintf fmt "trace %d (txn %d): %.1f us, %d span(s), %d abort(s)%s@."
    data.Trace.trace_id data.Trace.txn_id data.Trace.duration
    data.Trace.n_spans data.Trace.aborts
    (if data.Trace.ok then "" else " [gave up]");
  let totals = Critical_path.phase_totals data in
  let sum = List.fold_left (fun acc (_, d) -> acc +. d) 0.0 totals in
  Format.fprintf fmt "  critical path by phase (sums to latency):@.";
  List.iter
    (fun (phase, d) ->
      Format.fprintf fmt "    %-12s %10.1f us  %5.1f%%@." (Trace.phase_name phase) d
        (if sum > 0.0 then 100.0 *. d /. sum else 0.0))
    totals;
  let chain = Critical_path.path_spans data in
  let shown = List.filteri (fun i _ -> i < 12) chain in
  Format.fprintf fmt "  gating chain (%d step(s)%s):@." (List.length chain)
    (if List.length chain > 12 then ", first 12" else "");
  List.iter
    (fun (s : Trace.span) ->
      Format.fprintf fmt "    [%10.1f .. %10.1f] %-18s %-11s node=%d%s%s@."
        s.Trace.start_ts s.Trace.end_ts s.Trace.name
        (Trace.phase_name s.Trace.phase)
        s.Trace.node
        (if s.Trace.part >= 0 then Printf.sprintf " part=%d" s.Trace.part
         else "")
        (match s.Trace.notes with
        | [] -> ""
        | ns ->
            " {"
            ^ String.concat ", " (List.rev_map (fun (_, m) -> m) ns)
            ^ "}"))
    shown

let print ?(top = 5) ?(label = "") t =
  let policy_name =
    match Trace.policy t with
    | Trace.All -> "all"
    | Trace.Every n -> Printf.sprintf "every %d" n
    | Trace.Slowest k -> Printf.sprintf "slowest %d" k
    | Trace.On_abort -> "on-abort"
  in
  Printf.printf "--- trace report%s: %d txn(s) seen, %d sampled, %d finished, policy %s ---\n"
    (if label = "" then "" else " " ^ label)
    (Trace.started t) (Trace.sampled t) (Trace.finished t) policy_name;
  let fmt = Format.std_formatter in
  List.iter (fun data -> pp_trace fmt data) (top_slowest ~k:top t);
  Format.pp_print_flush fmt ()
