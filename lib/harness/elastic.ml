module Config = Lion_store.Config
module Cluster = Lion_store.Cluster
module Engine = Lion_sim.Engine
module Planner = Lion_core.Planner
module Forecaster = Lion_predict.Forecaster
module Autoscale = Lion_predict.Autoscale

type event = { at : float; kind : string; node : int }

type report = {
  seconds : int;
  offered_series : float array;
  members_series : int array;
  events : event list;
  joins : int;
  decommissions : int;
  rebalance_migrations : int;
  time_to_rebalance : float list;
  dips : (string * float * float) list;
  result : Runner.result;
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

(* One {!Runner} cell in the quiesce shape: the drain after the cycle
   also runs the self-terminating rebalancer and any draining
   decommission to completion. *)
let run ?(seed = 1) ?(smoke = false) ?trace () =
  let cfg = Config.with_elastic_defaults Config.default in
  let total_s = if smoke then 10 else 30 in
  let period = float_of_int total_s in
  let total = Engine.seconds period in
  let trough = 2_000.0 and peak = 9_000.0 in
  let per_node_rate = 1_500.0 in
  (* Per-second arrival counts, alongside Metrics' per-second commit
     buckets, give the completion-ratio series. Arrivals stop at the
     horizon, so every one lands in a bucket. *)
  let offered_buckets = Array.make total_s 0 and arrivals = ref 0 in
  let gen () =
    let gen = Workloads.ycsb ~seed ~skew:0.6 ~cross:0.3 cfg in
    fun ~time ->
      let bucket = int_of_float (time /. 1e6) in
      offered_buckets.(bucket) <- offered_buckets.(bucket) + 1;
      incr arrivals;
      gen ~time
  in
  let make cl =
    Lion_core.Standard.create ~name:"Lion"
      ~config:{ Planner.default_config with Planner.predict = true; use_lstm = false }
      cl
  in
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
  let cluster = ref None in
  let events = ref [] in
  let members_series = Array.make total_s cfg.Config.nodes in
  let ttr = ref [] in
  let was_running = ref false in
  let note_rebalance_done cl =
    ttr :=
      ((cl.Cluster.rebalance_done -. cl.Cluster.rebalance_started) /. 1e6) :: !ttr
  in
  let setup cl =
    cluster := Some cl;
    let engine = cl.Cluster.engine in
    let control = Engine.ms 500.0 in
    let arrivals_seen = ref 0 in
    let nodes = List.init (Cluster.node_count cl) Fun.id in
    let removable i =
      cl.Cluster.member.(i) && (not cl.Cluster.draining.(i)) && Cluster.alive cl i
    in
    (* Draining nodes still count as members until their removal
       completes; the scaler must see the post-drain size — and only
       one drain at a time — or it keeps stepping down while the first
       drain is still in progress. *)
    let draining_count () =
      Array.fold_left (fun a d -> if d then a + 1 else a) 0 cl.Cluster.draining
    in
    let effective_members () = Cluster.member_count cl - draining_count () in
    Runner.every engine ~first:control ~period:control ~until:total (fun () ->
        let rate = float_of_int (!arrivals - !arrivals_seen) /. (control /. 1e6) in
        arrivals_seen := !arrivals;
        Autoscale.observe scaler ~rate;
        let now_s = Engine.now engine /. 1e6 in
        match Autoscale.decide scaler ~members:(effective_members ()) with
        | Autoscale.Hold -> ()
        | Autoscale.Scale_up -> (
            match List.find_opt (fun i -> not cl.Cluster.member.(i)) nodes with
            | Some node when Cluster.join_node cl node ->
                events := { at = now_s; kind = "join"; node } :: !events
            | _ -> ())
        | Autoscale.Scale_down when draining_count () = 0 -> (
            match List.find_opt removable (List.rev nodes) with
            | Some node when Cluster.decommission_node cl node ->
                events := { at = now_s; kind = "decommission"; node } :: !events
            | _ -> ())
        | Autoscale.Scale_down -> ());
    (* Samplers: member count once per second (mid-bucket), and the
       rebalancer's running flag every 100 ms (from t=0) so each
       round's start-to-quiescence span is captured. *)
    Runner.every engine ~first:(Engine.ms 500.0) ~period:(Engine.seconds 1.0)
      ~until:total (fun () ->
        members_series.(int_of_float (Engine.now engine /. 1e6)) <-
          Cluster.member_count cl);
    let rebalance_watch () =
      let running = cl.Cluster.rebalance_running in
      if !was_running && not running then note_rebalance_done cl;
      was_running := running
    in
    rebalance_watch ();
    Runner.every engine ~first:(Engine.ms 100.0) ~period:(Engine.ms 100.0)
      ~until:total rebalance_watch
  in
  let rc =
    { Runner.quick with warmup = 0.0; duration = period;
      arrival = Uniform (diurnal ~trough ~peak ~period); stop = Quiesce Runner.drain_budget }
  in
  let result = Runner.run_cell ?trace (Runner.cell ~seed ~setup ~cfg ~make ~gen rc) in
  let cl = Option.get !cluster in
  if !was_running && not cl.Cluster.rebalance_running then note_rebalance_done cl;
  let offered_series = Array.map float_of_int offered_buckets in
  let events = List.rev !events in
  let dips =
    List.map
      (fun e ->
        let depth, dur =
          dip_after ~offered:offered_series ~goodput:result.Runner.goodput_series
            ~window:4 (int_of_float e.at)
        in
        (e.kind, depth, dur))
      events
  in
  {
    seconds = total_s;
    offered_series;
    members_series;
    events;
    joins = Runner.count result Node_join;
    decommissions = cl.Cluster.decommission_count;
    rebalance_migrations = cl.Cluster.rebalance_migrations;
    time_to_rebalance = List.rev !ttr;
    dips;
    result;
  }

let print_report r =
  let res = r.result in
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
      if i < Array.length res.goodput_series then res.goodput_series.(i) else 0.0
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
    (Runner.count res Stale_acks) res.commits res.aborts
