module Config = Lion_store.Config
module Cluster = Lion_store.Cluster
module Metrics = Lion_sim.Metrics
module Engine = Lion_sim.Engine
module Proto = Lion_protocols.Proto
module Planner = Lion_core.Planner
module Forecaster = Lion_predict.Forecaster
module Autoscale = Lion_predict.Autoscale

type event = { at : float; kind : string; node : int }

type report = {
  seconds : int;
  offered_series : float array;
  goodput_series : float array;
  members_series : int array;
  events : event list;
  joins : int;
  decommissions : int;
  rebalance_migrations : int;
  time_to_rebalance : float list;
  dips : (string * float * float) list;
  stale_ack_rejections : int;
  commits : int;
  aborts : int;
}

(* Diurnal offered rate: one raised-cosine cycle from trough to peak
   and back over [period] seconds. Deterministic (evenly spaced
   arrivals at the instantaneous rate), so the whole experiment —
   autoscale decisions included — replays byte-for-byte. *)
let diurnal ~trough ~peak ~period t =
  trough
  +. ((peak -. trough) *. 0.5
     *. (1.0 -. Float.cos (2.0 *. Float.pi *. t /. period)))

(* Completion-ratio dip in the [window] seconds after a scale event:
   depth is the worst commits/arrivals shortfall, duration counts the
   seconds below 98 % completion. *)
let dip_after ~offered ~goodput ~window at_s =
  let n = Stdlib.min (Array.length offered) (Array.length goodput) in
  let lo = Stdlib.max 0 at_s and hi = Stdlib.min (n - 1) (at_s + window) in
  let depth = ref 0.0 and dur = ref 0 in
  for i = lo to hi do
    if offered.(i) > 0.0 then begin
      let ratio = Stdlib.min 1.0 (goodput.(i) /. offered.(i)) in
      depth := Stdlib.max !depth (1.0 -. ratio);
      if ratio < 0.98 then incr dur
    end
  done;
  (!depth, float_of_int !dur)

let run ?(seed = 1) ?(smoke = false) () =
  let cfg = Config.with_elastic_defaults Config.default in
  let total_s = if smoke then 10 else 30 in
  let total = Engine.seconds (float_of_int total_s) in
  let period = float_of_int total_s in
  let trough = 2_000.0 and peak = 9_000.0 in
  let per_node_rate = 1_500.0 in
  let cl = Cluster.create ~seed cfg in
  let proto =
    Lion_core.Standard.create ~name:"Lion"
      ~config:{ Planner.default_config with Planner.predict = true; use_lstm = false }
      cl
  in
  let engine = cl.Cluster.engine in
  let gen = Workloads.ycsb ~seed ~skew:0.6 ~cross:0.3 cfg in
  (* Per-second arrival counts, alongside Metrics' per-second commit
     buckets, give the completion-ratio series. *)
  let offered_buckets = Array.make (total_s + 1) 0 in
  let rate_now () =
    diurnal ~trough ~peak ~period (Engine.now engine /. 1e6)
  in
  let rec arrive () =
    if Engine.now engine < total then begin
      let bucket = int_of_float (Engine.now engine /. 1e6) in
      if bucket <= total_s then
        offered_buckets.(bucket) <- offered_buckets.(bucket) + 1;
      proto.Proto.submit (gen ~time:(Engine.now engine)) ~on_done:(fun () -> ());
      Engine.schedule engine ~delay:(1e6 /. rate_now ()) arrive
    end
  in
  Engine.schedule engine ~delay:(1e6 /. rate_now ()) arrive;
  (* Planner tick, as in the benchmark runner. *)
  let rec ticker () =
    Engine.schedule engine ~delay:(Engine.seconds 1.0) (fun () ->
        if Engine.now engine < total then begin
          proto.Proto.tick ();
          ticker ()
        end)
  in
  ticker ();
  (* The autoscaler: observe the arrival rate every control tick,
     forecast ahead, and step the membership one node at a time. The
     smoke run keeps the trend-extrapolation fallback (the LSTM's
     training wall-clock is the expensive part, not the simulation). *)
  let scaler =
    Autoscale.create
      ~forecaster:(Forecaster.create ~seed ~use_lstm:(not smoke) ())
      ~per_node_rate ~min_members:cfg.Config.nodes
      ~max_members:(Config.total_slots cfg)
  in
  let events = ref [] in
  let control = Engine.ms 500.0 in
  let arrivals_seen = ref 0 in
  let total_arrivals () = Array.fold_left ( + ) 0 offered_buckets in
  let first_standby () =
    let n = Cluster.node_count cl in
    let rec go i = if i >= n then None
      else if not cl.Cluster.member.(i) then Some i else go (i + 1)
    in
    go 0
  in
  let last_removable () =
    let rec go i =
      if i < 0 then None
      else if cl.Cluster.member.(i) && (not cl.Cluster.draining.(i))
              && Cluster.alive cl i
      then Some i
      else go (i - 1)
    in
    go (Cluster.node_count cl - 1)
  in
  (* Draining nodes still count as members until their removal
     completes; the scaler must see the post-drain size — and only one
     drain at a time — or it keeps stepping down while the first drain
     is still in progress. *)
  let draining_count () =
    Array.fold_left (fun a d -> if d then a + 1 else a) 0 cl.Cluster.draining
  in
  let effective_members () = Cluster.member_count cl - draining_count () in
  let rec autoscale () =
    Engine.schedule engine ~delay:control (fun () ->
        if Engine.now engine < total then begin
          let seen = total_arrivals () in
          let rate =
            float_of_int (seen - !arrivals_seen) /. (control /. 1e6)
          in
          arrivals_seen := seen;
          Autoscale.observe scaler ~rate;
          let now_s = Engine.now engine /. 1e6 in
          (match Autoscale.decide scaler ~members:(effective_members ()) with
          | Autoscale.Hold -> ()
          | Autoscale.Scale_up -> (
              match first_standby () with
              | Some node when Cluster.join_node cl node ->
                  events := { at = now_s; kind = "join"; node } :: !events
              | _ -> ())
          | Autoscale.Scale_down when draining_count () = 0 -> (
              match last_removable () with
              | Some node when Cluster.decommission_node cl node ->
                  events :=
                    { at = now_s; kind = "decommission"; node } :: !events
              | _ -> ())
          | Autoscale.Scale_down -> ());
          autoscale ()
        end)
  in
  autoscale ();
  (* Samplers: member count once per second (mid-bucket), and the
     rebalancer's running flag every 100 ms so each round's
     start-to-quiescence span is captured. *)
  let members_series = Array.make total_s cfg.Config.nodes in
  let rec member_loop () =
    let bucket = int_of_float (Engine.now engine /. 1e6) in
    if bucket < total_s then begin
      members_series.(bucket) <- Cluster.member_count cl;
      Engine.schedule engine ~delay:(Engine.seconds 1.0) member_loop
    end
  in
  Engine.schedule engine ~delay:(Engine.ms 500.0) member_loop;
  let ttr = ref [] in
  let was_running = ref false in
  let rec rebalance_watch () =
    if Engine.now engine < total then begin
      let running = cl.Cluster.rebalance_running in
      if !was_running && not running then
        ttr :=
          ((cl.Cluster.rebalance_done -. cl.Cluster.rebalance_started) /. 1e6)
          :: !ttr;
      was_running := running;
      Engine.schedule engine ~delay:(Engine.ms 100.0) rebalance_watch
    end
  in
  rebalance_watch ();
  Engine.run_until engine total;
  proto.Proto.drain ();
  (* Quiesce: in-flight transactions, the rebalancer and any draining
     decommission all run to completion (the rebalance loop is
     self-terminating, so the queue empties). *)
  Engine.run_all engine ~max_events:50_000_000 ();
  if !was_running && not cl.Cluster.rebalance_running then
    ttr :=
      ((cl.Cluster.rebalance_done -. cl.Cluster.rebalance_started) /. 1e6)
      :: !ttr;
  let metrics = cl.Cluster.metrics in
  let goodput_series = Metrics.goodput_series metrics in
  let offered_series =
    Array.init total_s (fun i -> float_of_int offered_buckets.(i))
  in
  let events = List.rev !events in
  let dips =
    List.map
      (fun e ->
        let depth, dur =
          dip_after ~offered:offered_series ~goodput:goodput_series ~window:4
            (int_of_float e.at)
        in
        (e.kind, depth, dur))
      events
  in
  {
    seconds = total_s;
    offered_series;
    goodput_series;
    members_series;
    events;
    joins = cl.Cluster.join_count;
    decommissions = cl.Cluster.decommission_count;
    rebalance_migrations = cl.Cluster.rebalance_migrations;
    time_to_rebalance = List.rev !ttr;
    dips;
    stale_ack_rejections = Metrics.stale_ack_rejections metrics;
    commits = Metrics.commits metrics;
    aborts = Metrics.aborts metrics;
  }

let print_report r =
  Printf.printf
    "Elastic scale: diurnal open-loop load, forecast-driven membership\n";
  Printf.printf "%-8s %-12s %-12s %-8s %s\n" "second" "offered/s" "goodput/s"
    "members" "event";
  let evs_in i =
    List.filter_map
      (fun e ->
        if int_of_float e.at = i then
          Some (Printf.sprintf "%s node %d (t=%.1fs)" e.kind e.node e.at)
        else None)
      r.events
  in
  for i = 0 to r.seconds - 1 do
    let g =
      if i < Array.length r.goodput_series then r.goodput_series.(i) else 0.0
    in
    Printf.printf "%-8d %-12.0f %-12.0f %-8d %s\n" (i + 1)
      r.offered_series.(i) g r.members_series.(i)
      (String.concat "; " (evs_in i))
  done;
  Printf.printf "joins %d, decommissions %d, rebalance migrations %d\n"
    r.joins r.decommissions r.rebalance_migrations;
  Printf.printf "time-to-rebalance:%s\n"
    (if r.time_to_rebalance = [] then " none"
     else
       String.concat ","
         (List.map (Printf.sprintf " %.2fs") r.time_to_rebalance));
  List.iter
    (fun (kind, depth, dur) ->
      Printf.printf "goodput dip after %s: depth %.1f%%, duration %.0fs\n" kind
        (100.0 *. depth) dur)
    r.dips;
  Printf.printf "stale-ack rejections %d, commits %d, aborts %d\n"
    r.stale_ack_rejections r.commits r.aborts
