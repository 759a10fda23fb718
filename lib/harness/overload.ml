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

let cell ~seed ~cfg (p : Protocols.entry) rc =
  Runner.cell ~seed ~batch:p.batch ~cfg ~make:(make p) ~gen:(fun () -> gen_for ~seed cfg) rc

let probe_capacity ?(seed = 1) ?(scale = 1.0) ?trace p =
  let rc = { Runner.quick with warmup = 2.0 *. scale; duration = 4.0 *. scale } in
  (Runner.run_cell ?trace (cell ~seed ~cfg:Config.default p rc)).Runner.throughput

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

(* Capacity first, then the points in order, inside one cell: the
   points' offered loads depend on the probe. *)
let sweep_one ?(seed = 1) ?(scale = 1.0) ?(protect = false)
    ?(ratios = default_ratios) ?trace proto =
  let capacity = probe_capacity ~seed ~scale ?trace proto in
  let cfg =
    if protect then Config.with_overload_defaults Config.default
    else measured_baseline
  in
  let point ratio =
    let rc =
      {
        Runner.quick with
        warmup = 2.0 *. scale;
        duration = 6.0 *. scale;
        arrival = Runner.Poisson (ratio *. capacity);
      }
    in
    { ratio; result = Runner.run_cell ?trace (cell ~seed ~cfg proto rc) }
  in
  { proto; protected_ = protect; capacity; points = List.map point ratios }

let sweep ?seed ?scale ?ratios ?trace ?(protocols = protocols) protects =
  Runner.cells ?trace
    (fun ?trace (protect, p) -> sweep_one ?seed ?scale ~protect ?ratios ?trace p)
    (List.concat_map (fun protect -> List.map (fun p -> (protect, p)) protocols) protects)

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
              string_of_int (Runner.count r Breaker_rejects);
              string_of_int (Runner.count r Breaker_opens);
              string_of_int (Runner.count r Budget_denials);
              string_of_int r.Runner.deadline_giveups;
              string_of_int (Runner.count r Deadline_misses);
            ])
          s.points)
      sweeps
  in
  (header, rows)

let print_sweeps sweeps =
  List.iter
    (fun s ->
      Table.by_row
        ~title:
          (Printf.sprintf "Offered-load sweep: %s%s (closed-loop capacity %.0f txn/s)"
             s.proto.id
             (if s.protected_ then " with overload protection" else "")
             s.capacity)
        "offered/capacity"
        [
          Runner.fixed ~decimals:0 "offered" (fun r -> r.offered);
          Runner.fixed ~decimals:0 "throughput" (fun r -> r.throughput);
          Runner.fixed ~decimals:0 "goodput" (fun r -> r.goodput);
          Runner.ms "p99 (ms)" (fun r -> r.p99);
          Runner.tally "sheds" (fun r -> r.sheds);
          Runner.timeouts;
          Runner.tally "giveups" (fun r -> r.deadline_giveups);
        ]
        (List.map (fun p -> (Printf.sprintf "%.2f" p.ratio, p.result)) s.points))
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

(* Timeline (x [scale]): warmup 2 s; trigger (node 0 slowed 12x) from
   6 s to 9 s; run ends at 20 s. Peak goodput is measured on [2,6), the
   tail on [14,20) — five seconds after the trigger cleared, ample time
   for a system that is going to recover to have done so. Both variants
   measure the same 200 ms client patience; only the protected one acts
   on it. *)
let metastable ?(seed = 1) ?(scale = 1.0) ?(load = 1.0) ?trace ~protect () =
  let twopc = Protocols.get "2pc" in
  let capacity = probe_capacity ~seed ~scale ?trace twopc in
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
  let result = Runner.run_cell ?trace (cell ~seed ~cfg twopc rc) in
  let series = result.Runner.goodput_series in
  let sec x = int_of_float (Float.round (s x)) in
  let mean_range = Lion_kernel.Stats.mean_range in
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

(* The cells run protected-first, the order trace files are numbered
   in; the results come back unprotected-first. *)
let metastable_pair ?seed ?scale ?load ?trace () =
  List.rev
    (Runner.cells ?trace
       (fun ?trace protect -> metastable ?seed ?scale ?load ?trace ~protect ())
       [ true; false ])

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
  Table.by_row
    ~title:
      "Metastable failure: open-loop at saturation, node 0 slowed 12x for 3 s (2PC; \
       goodput/s, 200 ms client patience)"
    "variant"
    [
      ("peak", fun m -> Table.cell_float ~decimals:0 m.peak);
      ("during trigger", fun m -> Table.cell_float ~decimals:0 m.during);
      ("after trigger", fun m -> Table.cell_float ~decimals:0 m.tail);
      ( "tail/peak",
        fun m -> Table.cell_float ~decimals:2 (if m.peak > 0.0 then m.tail /. m.peak else 0.0) );
      ("giveups", fun m -> Table.cell_int m.result.Runner.deadline_giveups);
    ]
    (List.map (fun m -> (m.label, m)) metas);
  match metas with
  | [ unprot; prot ] when unprot.peak > 0.0 && prot.peak > 0.0 ->
      Printf.printf
        "Trigger cleared at 9s; unprotected goodput holds %.0f%% of peak, \
         protected recovers to %.0f%%.\n"
        (100.0 *. unprot.tail /. unprot.peak)
        (100.0 *. prot.tail /. prot.peak)
  | _ -> ()
