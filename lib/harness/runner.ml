module Cluster = Lion_store.Cluster
module Config = Lion_store.Config
module Engine = Lion_sim.Engine
module Network = Lion_sim.Network
module Metrics = Lion_sim.Metrics
module Proto = Lion_protocols.Proto
module Trace = Lion_trace.Trace
module Table = Lion_kernel.Table

type trace_sink = { fresh : unit -> Trace.t; emit : Trace.t -> unit }

type arrival =
  | Closed
  | Poisson of float
  | Uniform of (float -> float)

type stop = Forever | Quiesce of int

type config = {
  clients : int;
  warmup : float;
  duration : float;
  tick_every : float;
  arrival : arrival;
  stop : stop;
}

let quick =
  { clients = 0; warmup = 2.0; duration = 6.0; tick_every = 1.0; arrival = Closed;
    stop = Forever }

let drain_budget = 50_000_000

let every engine ~first ~period ~until f =
  let rec loop () =
    if Engine.now engine < until then (
      f ();
      Engine.schedule engine ~delay:period loop)
  in
  Engine.schedule engine ~delay:first loop

type result = {
  throughput : float;
  goodput : float;
  offered : float;
  commits : int;
  aborts : int;
  p50 : float;
  p75 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  mean_latency : float;
  single_node_ratio : float;
  remaster_ratio : float;
  throughput_series : float array;
  goodput_series : float array;
  bytes_series : float array;
  bytes_per_txn : float;
  phase_fractions : (Metrics.phase * float) list;
  remasters : int;
  replica_adds : int;
  timeouts : int;
  retries : int;
  sheds : int;
  deadline_giveups : int;
  availability : float array;
  unavail_seconds : float;
  time_to_recover : float;
  goodput_under_fault : float;
  engine_events : int;
  counters : Metrics.snapshot;
}

let count r c = Metrics.get r.counters c

let degraded a = a < 0.9995

(* Fault summary over the per-second availability samples: lost
   capacity integrated over the run, the span from first to last
   degraded second (recovery time), and the throughput sustained while
   degraded. *)
let fault_summary ~availability ~throughput_series =
  let n = Array.length availability in
  let first = ref (-1) and last = ref (-1) in
  let unavail = ref 0.0 in
  for i = 0 to n - 1 do
    unavail := !unavail +. (1.0 -. Stdlib.min 1.0 availability.(i));
    if degraded availability.(i) then (
      if !first < 0 then first := i;
      last := i)
  done;
  let time_to_recover =
    if !first < 0 then 0.0
    else if !last = n - 1 then infinity (* still degraded when the run ended *)
    else float_of_int (!last - !first + 1)
  in
  let goodput =
    if !first < 0 then 0.0
    else (
      let sum = ref 0.0 and count = ref 0 in
      for i = !first to Stdlib.min !last (Array.length throughput_series - 1) do
        if degraded availability.(i) then (
          sum := !sum +. throughput_series.(i);
          incr count)
      done;
      if !count = 0 then 0.0 else !sum /. float_of_int !count)
  in
  (!unavail, time_to_recover, goodput)

let run ?(seed = 1) ?(batch = false) ?(setup = fun _ -> ()) ?trace ?tracer ?history
    ~cfg ~make ~gen rc =
  let sink_tracer =
    match (tracer, trace) with
    | None, Some s -> Some (s.fresh ())
    | _ -> None
  in
  let tracer = match tracer with Some _ -> tracer | None -> sink_tracer in
  let cl = Cluster.create ~seed ?tracer ?history cfg in
  setup cl;
  let proto = make cl in
  let engine = cl.Cluster.engine in
  let horizon = Engine.seconds (rc.warmup +. rc.duration) in
  (* When the tick and the sampler stop issuing. *)
  let until = match rc.stop with Forever -> infinity | Quiesce _ -> horizon in
  let measured_arrivals = ref 0 in
  (* Open-loop arrivals: transactions arrive on their own clock,
     oblivious to completions — the offered load stays fixed even when
     the system falls behind, which is what exposes overload and
     metastable behaviour (docs/OVERLOAD.md). They stop at the horizon
     in both stop shapes. *)
  let open_loop gap =
    let warm_end = Engine.seconds rc.warmup in
    let rec arrive () =
      if Engine.now engine < horizon then (
        if Engine.now engine >= warm_end then incr measured_arrivals;
        let txn = gen ~time:(Engine.now engine) in
        proto.Proto.submit txn ~on_done:(fun () -> ());
        Engine.schedule engine ~delay:(gap ()) arrive)
    in
    Engine.schedule engine ~delay:(gap ()) arrive
  in
  (match rc.arrival with
  | Closed ->
      let clients =
        if rc.clients > 0 then rc.clients
        else if batch then cfg.Config.batch_size
        else 2 * Config.total_workers cfg
      in
      (* Closed-loop clients: each submits its next transaction the
         moment the previous one finishes, so the offered load tracks
         the system's own pace and can never run away from it. Clients
         are interchangeable, so they share one completion callback,
         built once for the run rather than once per transaction. Only
         the quiesce shape pays a horizon check per transaction. *)
      let rec on_done () = Engine.schedule engine ~delay:0.0 next
      and issue () = proto.Proto.submit (gen ~time:(Engine.now engine)) ~on_done
      and next () =
        match rc.stop with
        | Forever -> issue ()
        | Quiesce _ -> if Engine.now engine < horizon then issue ()
      in
      for _ = 1 to clients do
        next ()
      done
  | Poisson rate when rate > 0.0 ->
      (* A dedicated Rng keeps the arrival process independent of every
         other seeded stream. Inverse-CDF exponential; log1p keeps u→0
         exact and Rng.float never returns 1.0, so the draw is finite. *)
      let arr_rng = Lion_kernel.Rng.create (seed + 0x0a51) in
      let mean_gap = 1e6 /. rate in
      open_loop (fun () -> -.mean_gap *. log1p (-.Lion_kernel.Rng.float arr_rng 1.0))
  | Uniform rate when rate 0.0 > 0.0 ->
      open_loop (fun () -> 1e6 /. rate (Engine.now engine /. 1e6))
  | _ -> ());
  (* Periodic protocol tick (planner / load monitor). *)
  let tick_us = Engine.seconds rc.tick_every in
  every engine ~first:tick_us ~period:tick_us ~until proto.Proto.tick;
  (* Availability sampler: one mid-bucket probe per simulated second,
     so each bucket of the series holds exactly one sample. No probe is
     queued past [until], where it would outlive a drained queue. *)
  let avail_tick = Engine.seconds 1.0 in
  let rec avail_loop () =
    Metrics.note_availability cl.Cluster.metrics ~frac:(Cluster.availability cl);
    next_probe avail_tick
  and next_probe delay =
    if Engine.now engine +. delay <= until then
      Engine.schedule engine ~delay avail_loop
  in
  next_probe (avail_tick /. 2.0);
  (* Warm up, reset the summary window, then measure. A quiesce run
     without warmup measures from t=0 and resets nothing, so a fault at
     the first instant keeps its counters. *)
  (match rc.stop with
  | Quiesce _ when rc.warmup <= 0.0 -> ()
  | _ ->
      Engine.run_until engine (Engine.seconds rc.warmup);
      Metrics.reset_window cl.Cluster.metrics);
  let bytes_before = Network.total_bytes cl.Cluster.network in
  Engine.run_until engine horizon;
  proto.Proto.drain ();
  (match rc.stop with
  | Forever -> ()
  | Quiesce max_events -> Engine.run_all engine ~max_events ());
  let metrics = cl.Cluster.metrics in
  let counters = Metrics.snapshot metrics in
  let get = Metrics.get counters in
  let commits = get Commits in
  let bytes_delta = Network.total_bytes cl.Cluster.network - bytes_before in
  let availability = Metrics.availability_series metrics in
  let throughput_series = Metrics.throughput_series metrics in
  let unavail_seconds, time_to_recover, goodput_under_fault =
    fault_summary ~availability ~throughput_series
  in
  (match (sink_tracer, trace) with
  | Some t, Some s -> s.emit t
  | _ -> ());
  let throughput = float_of_int commits /. rc.duration in
  let pct = Metrics.latency_percentiles metrics [| 50.0; 75.0; 90.0; 95.0; 99.0 |] in
  {
    throughput;
    (* Goodput discounts commits that landed past their deadline: the
       client had already given up on them. Without a deadline it
       equals throughput. *)
    goodput =
      float_of_int (commits - get Deadline_misses) /. rc.duration;
    offered =
      (match rc.arrival with
      | Closed -> throughput
      | Poisson _ | Uniform _ ->
          float_of_int !measured_arrivals /. rc.duration);
    commits;
    aborts = get Aborts;
    p50 = pct.(0);
    p75 = pct.(1);
    p90 = pct.(2);
    p95 = pct.(3);
    p99 = pct.(4);
    mean_latency = Metrics.mean_latency metrics;
    single_node_ratio =
      (if commits = 0 then 0.0
       else float_of_int (get Single_node_commits) /. float_of_int commits);
    remaster_ratio =
      (if commits = 0 then 0.0
       else float_of_int (get Remastered_commits) /. float_of_int commits);
    throughput_series;
    goodput_series = Metrics.goodput_series metrics;
    bytes_series = Lion_kernel.Timeseries.to_array (Network.bytes_series cl.Cluster.network);
    bytes_per_txn =
      (if commits = 0 then 0.0 else float_of_int bytes_delta /. float_of_int commits);
    phase_fractions =
      List.map (fun p -> (p, Metrics.phase_fraction metrics p)) Metrics.all_phases;
    remasters = Metrics.completed_remasters counters;
    replica_adds = get Replica_adds;
    timeouts = get Timeouts;
    retries = get Retries;
    sheds = get Sheds;
    deadline_giveups = get Deadline_giveups;
    availability;
    unavail_seconds;
    time_to_recover;
    goodput_under_fault;
    engine_events = Engine.events_processed engine;
    counters;
  }

(* Each cell's runs hand their tracers to a per-cell list instead of
   [emit]; the calling domain emits them once the pool is done, so
   trace files are numbered and reports printed in cell order. *)
let cells ?domains ?trace (run : ?trace:trace_sink -> 'a -> 'b) xs =
  match trace with
  | None -> Pool.map ?domains (fun x -> run ?trace:None x) xs
  | Some sink ->
      Pool.map ?domains
        (fun x ->
          let tracers = ref [] in
          let r = run ~trace:{ sink with emit = (fun t -> tracers := t :: !tracers) } x in
          (r, List.rev !tracers))
        xs
      |> List.map (fun (r, tracers) ->
             List.iter sink.emit tracers;
             r)

type cell = {
  seed : int;
  batch : bool;
  cfg : Config.t;
  make : Cluster.t -> Proto.t;
  gen : unit -> time:float -> Lion_workload.Txn.t;
  rc : config;
  setup : (Cluster.t -> unit) option;
}

let cell ?(seed = 1) ?(batch = false) ?setup ~cfg ~make ~gen rc =
  { seed; batch; cfg; make; gen; rc; setup }

(* The generator is built inside the cell, so every cell draws its own
   stream whichever domain runs it. *)
let run_cell ?trace c =
  run ~seed:c.seed ~batch:c.batch ?setup:c.setup ?trace ~cfg:c.cfg ~make:c.make
    ~gen:(c.gen ()) c.rc

let run_cells ?domains ?trace cs = cells ?domains ?trace run_cell cs

let run_grid ?trace cell rows cols =
  let width = List.length cols in
  let results =
    run_cells ?trace (List.concat_map (fun r -> List.map (cell r) cols) rows)
  in
  List.mapi (fun i _ -> List.filteri (fun j _ -> j / width = i) results) rows

type column = string * (result -> string)

let fmt_k v = Table.cell_float ~decimals:1 (v /. 1000.0)
let k_txn ?(header = "k txn/s") () = (header, fun r -> fmt_k r.throughput)
let tally header get = (header, fun r -> Table.cell_int (get r))
let fixed ?(decimals = 1) header get = (header, fun r -> Table.cell_float ~decimals (get r))
let ms ?decimals header get = fixed ?decimals header (fun r -> get r /. 1000.0)
let aborts = tally "aborts" (fun r -> r.aborts)
let timeouts = tally "timeouts" (fun r -> r.timeouts)
let retries = tally "retries" (fun r -> r.retries)
let drops = tally "drops" (fun r -> count r Drops)
let single_node = fixed "single-node %" (fun r -> 100.0 *. r.single_node_ratio)
