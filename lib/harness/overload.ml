(* Overload and graceful-degradation experiments (docs/OVERLOAD.md):
   probe each protocol's closed-loop capacity, sweep open-loop offered
   load through and past saturation, and reproduce a metastable failure
   — a short trigger that leaves the unprotected system collapsed long
   after the trigger ends, sustained by its own retry work. *)

module Config = Lion_store.Config
module Engine = Lion_sim.Engine
module Fault = Lion_sim.Fault
module Table = Lion_kernel.Table
module Planner = Lion_core.Planner

let protocols = List.map Protocols.get [ "lion"; "star"; "2pc" ]

(* Lion runs with prediction but without the LSTM forecaster. *)
let make (p : Protocols.entry) =
  p.make ~config:{ Planner.default_config with Planner.use_lstm = false }

(* The workload shared by every overload run: moderately skewed, half
   the transactions cross partitions — enough RPC traffic for remote
   queues to matter. *)
let gen_for ~seed cfg = Workloads.ycsb ~seed ~skew:0.8 ~cross:0.5 cfg

let probe_capacity ?(seed = 1) ?(scale = 1.0) (p : Protocols.entry) =
  let cfg = Config.default in
  let rc = { Runner.quick with warmup = 2.0 *. scale; duration = 4.0 *. scale } in
  let r =
    Runner.run ~seed ~batch:p.batch ~cfg ~make:(make p) ~gen:(gen_for ~seed cfg) rc
  in
  r.Runner.throughput

type point = { ratio : float; result : Runner.result }

type sweep = {
  proto : Protocols.entry;
  protected_ : bool;
  capacity : float;
  points : point list;
}

let default_ratios = [ 0.25; 0.5; 0.75; 1.0; 1.25; 1.5 ]

(* Unprotected baseline for goodput comparisons: every robustness knob
   stays off, but the client's 200 ms patience is still *measured*
   ([enforce = false]) so goodput means the same thing on both sides of
   the sweep. Commits the client stopped waiting for are not goodput,
   whether or not the system knows it. *)
let measured_deadline = Some { Config.default_deadline with enforce = false }
let measured_baseline = { Config.default with Config.deadline = measured_deadline }

let sweep_one ?(seed = 1) ?(scale = 1.0) ?(protect = false)
    ?(ratios = default_ratios) proto =
  let capacity = probe_capacity ~seed ~scale proto in
  let cfg =
    if protect then Config.with_overload_defaults Config.default
    else measured_baseline
  in
  let points =
    List.map
      (fun ratio ->
        let rc =
          {
            Runner.quick with
            warmup = 2.0 *. scale;
            duration = 6.0 *. scale;
            arrival = Runner.Poisson (ratio *. capacity);
          }
        in
        let result =
          Runner.run ~seed ~batch:proto.batch ~cfg ~make:(make proto)
            ~gen:(gen_for ~seed cfg) rc
        in
        { ratio; result })
      ratios
  in
  { proto; protected_ = protect; capacity; points }

let sweep ?seed ?scale ?protect ?ratios () =
  List.map (sweep_one ?seed ?scale ?protect ?ratios) protocols

let sweep_rows sweeps =
  let header =
    [
      "proto"; "protected"; "ratio"; "capacity_txn_s"; "offered_txn_s";
      "throughput_txn_s"; "goodput_txn_s"; "p99_us"; "sheds"; "timeouts";
      "retries"; "breaker_rejects"; "breaker_opens"; "budget_denials";
      "deadline_giveups"; "deadline_misses";
    ]
  in
  let rows =
    List.concat_map
      (fun s ->
        List.map
          (fun p ->
            let r = p.result in
            [
              s.proto.id;
              (if s.protected_ then "1" else "0");
              Printf.sprintf "%.2f" p.ratio;
              Printf.sprintf "%.1f" s.capacity;
              Printf.sprintf "%.1f" r.Runner.offered;
              Printf.sprintf "%.1f" r.Runner.throughput;
              Printf.sprintf "%.1f" r.Runner.goodput;
              Printf.sprintf "%.1f" r.Runner.p99;
              string_of_int r.Runner.sheds;
              string_of_int r.Runner.timeouts;
              string_of_int r.Runner.retries;
              string_of_int r.Runner.breaker_rejects;
              string_of_int r.Runner.breaker_opens;
              string_of_int r.Runner.budget_denials;
              string_of_int r.Runner.deadline_giveups;
              string_of_int r.Runner.deadline_misses;
            ])
          s.points)
      sweeps
  in
  (header, rows)

let print_sweeps sweeps =
  List.iter
    (fun s ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf
               "Offered-load sweep: %s%s (closed-loop capacity %.0f txn/s)"
               s.proto.id
               (if s.protected_ then " with overload protection" else "")
               s.capacity)
          ~columns:
            [
              "offered/capacity"; "offered"; "throughput"; "goodput"; "p99 (ms)";
              "sheds"; "timeouts"; "giveups";
            ]
      in
      List.iter
        (fun p ->
          let r = p.result in
          Table.add_row t
            [
              Printf.sprintf "%.2f" p.ratio;
              Table.cell_float ~decimals:0 r.Runner.offered;
              Table.cell_float ~decimals:0 r.Runner.throughput;
              Table.cell_float ~decimals:0 r.Runner.goodput;
              Table.cell_float ~decimals:1 (r.Runner.p99 /. 1000.0);
              Table.cell_int r.Runner.sheds;
              Table.cell_int r.Runner.timeouts;
              Table.cell_int r.Runner.deadline_giveups;
            ])
        s.points;
      Table.print t)
    sweeps

(* ------------------------------------------------------------------ *)
(* Metastable failure: run open-loop at the saturation knee, slow one
   node hard for a short window, and watch goodput after the node
   returns to full speed. During the trigger the slowed node sheds;
   shed RPCs park coordinator workers through full timeout schedules
   and the aborted transactions retry forever, so a large backlog of
   stale work accumulates. Unprotected, the system then spends the rest
   of the run dutifully committing transactions whose clients gave up
   long ago: throughput looks healthy but goodput stays collapsed —
   the trigger is gone, the failure state sustains itself. Deadline
   enforcement sheds the zombie backlog, budgets and breakers stop the
   retry storm from re-filling it, and goodput snaps back.             *)
(* ------------------------------------------------------------------ *)

type meta = {
  label : string;
  capacity : float;
  peak : float;  (* mean goodput/s before the trigger *)
  during : float;  (* mean goodput/s while the trigger is active *)
  tail : float;  (* mean goodput/s well after the trigger ended *)
  series : float array;  (* goodput/s, per second *)
  commit_series : float array;  (* raw commits/s, per second *)
  result : Runner.result;
}

let mean_range series ~from_ ~until =
  let n = Array.length series in
  let lo = Stdlib.max 0 from_ and hi = Stdlib.min n until in
  if hi <= lo then 0.0
  else (
    let sum = ref 0.0 in
    for i = lo to hi - 1 do
      sum := !sum +. series.(i)
    done;
    !sum /. float_of_int (hi - lo))

(* Timeline (x [scale]): warmup 2 s; trigger (node 0 slowed 12x) from
   6 s to 9 s; run ends at 20 s. Peak goodput is measured on [2,6), the
   tail on [14,20) — five seconds after the trigger cleared, ample time
   for a system that is going to recover to have done so. Both variants
   measure the same 200 ms client patience; only the protected one acts
   on it. *)
let metastable ?(seed = 1) ?(scale = 1.0) ?(load = 1.0) ~protect () =
  let twopc = Protocols.get "2pc" in
  let capacity = probe_capacity ~seed ~scale twopc in
  let protected_cfg = Config.with_overload_defaults Config.default in
  let cfg =
    if protect then protected_cfg
    else
      {
        protected_cfg with
        Config.retry_budget = None;
        breaker = None;
        deadline = measured_deadline;
      }
  in
  let s x = x *. scale in
  let plan =
    Fault.slow_node ~node:0 ~factor:12.0
      ~from_:(Engine.seconds (s 6.0))
      ~until:(Engine.seconds (s 9.0))
  in
  let cfg = { cfg with Config.fault_plan = plan } in
  let rc =
    {
      Runner.quick with
      warmup = s 2.0;
      duration = s 18.0;
      arrival = Runner.Poisson (load *. capacity);
    }
  in
  let result =
    Runner.run ~seed ~batch:twopc.batch ~cfg ~make:(make twopc) ~gen:(gen_for ~seed cfg) rc
  in
  let series = result.Runner.goodput_series in
  let sec x = int_of_float (Float.round (s x)) in
  {
    label = (if protect then "budgets+breakers+deadline" else "queue caps only");
    capacity;
    peak = mean_range series ~from_:(sec 2.0) ~until:(sec 6.0);
    during = mean_range series ~from_:(sec 6.0) ~until:(sec 9.0);
    tail = mean_range series ~from_:(sec 14.0) ~until:(sec 20.0);
    series;
    commit_series = result.Runner.throughput_series;
    result;
  }

let metastable_pair ?seed ?scale ?load () =
  [
    metastable ?seed ?scale ?load ~protect:false ();
    metastable ?seed ?scale ?load ~protect:true ();
  ]

let metastable_rows metas =
  let len =
    List.fold_left (fun acc m -> Stdlib.max acc (Array.length m.series)) 0 metas
  in
  let header =
    "second"
    :: List.concat_map
         (fun m -> [ m.label ^ "_good_txn_s"; m.label ^ "_commit_txn_s" ])
         metas
  in
  let cell arr i =
    if i < Array.length arr then Printf.sprintf "%.1f" arr.(i) else ""
  in
  let rows =
    List.init len (fun i ->
        string_of_int (i + 1)
        :: List.concat_map
             (fun m -> [ cell m.series i; cell m.commit_series i ])
             metas)
  in
  (header, rows)

let print_metastable metas =
  let t =
    Table.create
      ~title:
        "Metastable failure: open-loop at saturation, node 0 slowed 12x for \
         3 s (2PC; goodput/s, 200 ms client patience)"
      ~columns:
        [ "variant"; "peak"; "during trigger"; "after trigger"; "tail/peak"; "giveups" ]
  in
  List.iter
    (fun m ->
      Table.add_row t
        [
          m.label;
          Table.cell_float ~decimals:0 m.peak;
          Table.cell_float ~decimals:0 m.during;
          Table.cell_float ~decimals:0 m.tail;
          Table.cell_float ~decimals:2
            (if m.peak > 0.0 then m.tail /. m.peak else 0.0);
          Table.cell_int m.result.Runner.deadline_giveups;
        ])
    metas;
  Table.print t;
  match metas with
  | [ unprot; prot ] when unprot.peak > 0.0 && prot.peak > 0.0 ->
      Printf.printf
        "Trigger cleared at 9s; unprotected goodput holds %.0f%% of peak, \
         protected recovers to %.0f%%.\n"
        (100.0 *. unprot.tail /. unprot.peak)
        (100.0 *. prot.tail /. prot.peak)
  | _ -> ()
