module Json = Lion_kernel.Json

let pid_of_node node = node + 1

let add_event buf ~first fmt =
  if not !first then Buffer.add_string buf ",\n";
  first := false;
  Buffer.add_string buf "    ";
  Printf.ksprintf (Buffer.add_string buf) fmt

let emit_trace buf ~first (data : Trace.trace) =
  let spans = Trace.spans_in_order data in
  let tid = data.Trace.trace_id in
  Array.iter
    (fun (s : Trace.span) ->
      let dur = Trace.span_duration s in
      add_event buf ~first
        {|{"name":"%s","cat":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"txn":%d,"span":%d,"part":%d%s}}|}
        (Json.escape s.Trace.name) (Trace.phase_name s.Trace.phase) s.Trace.start_ts dur
        (pid_of_node s.Trace.node) tid data.Trace.txn_id s.Trace.id
        s.Trace.part
        (if Trace.is_open s then {|,"open":true|} else "");
      List.iter
        (fun (ts, msg) ->
          add_event buf ~first
            {|{"name":"%s","cat":"%s","ph":"i","ts":%.3f,"pid":%d,"tid":%d,"s":"t"}|}
            (Json.escape msg) (Trace.phase_name s.Trace.phase) ts (pid_of_node s.Trace.node)
            tid)
        (List.rev s.Trace.notes))
    spans

let to_json ?(label = "lion") ?(instants = []) traces =
  let traces =
    List.sort (fun a b -> compare a.Trace.trace_id b.Trace.trace_id) traces
  in
  (* Metadata: name every node track that appears. *)
  let nodes = Hashtbl.create 8 in
  List.iter
    (fun data ->
      Array.iter
        (fun (s : Trace.span) -> Hashtbl.replace nodes s.Trace.node ())
        (Trace.spans_in_order data))
    traces;
  List.iter (fun (_, node, _) -> Hashtbl.replace nodes node ()) instants;
  let node_list = List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) nodes []) in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let first = ref true in
  List.iter
    (fun node ->
      let name = if node < 0 then "clients" else Printf.sprintf "node %d" node in
      add_event buf ~first
        {|{"name":"process_name","ph":"M","pid":%d,"args":{"name":"%s"}}|}
        (pid_of_node node) name)
    node_list;
  (* Cluster-level fault/lifecycle instants: global scope ("s":"g")
     draws them as full-height markers across every track, so crashes
     and partition windows line up visually with the spans they
     disrupt. *)
  List.iter
    (fun (ts, node, name) ->
      add_event buf ~first
        {|{"name":"%s","cat":"fault","ph":"i","ts":%.3f,"pid":%d,"tid":0,"s":"g"}|}
        (Json.escape name) ts (pid_of_node node))
    instants;
  List.iter
    (fun data ->
      (* One thread-name metadata row per trace so Perfetto labels the
         row with the transaction it follows. *)
      List.iter
        (fun node ->
          add_event buf ~first
            {|{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"trace %d (txn %d)"}}|}
            (pid_of_node node) data.Trace.trace_id data.Trace.trace_id
            data.Trace.txn_id)
        node_list;
      emit_trace buf ~first data)
    traces;
  Buffer.add_string buf
    (Printf.sprintf
       "\n  ],\n\"displayTimeUnit\":\"ms\",\"otherData\":{\"label\":\"%s\",\"traces\":%d}}\n"
       (Json.escape label) (List.length traces));
  Buffer.contents buf

let write ~path ?label ?instants traces =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ?label ?instants traces))
