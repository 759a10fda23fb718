(* The named perf scenarios behind [lion perf] / `make perf`.

   Three layers, mirroring where the simulator spends its time:

   - kernel micro: raw event-heap churn ([pqueue_churn]);
   - engine micro: event-loop drains ([engine_drain] on the optimized
     engine, [engine_drain_seed] on the frozen pre-optimization copy —
     their ratio is the tracked speedup, and the seed scenario doubles
     as a machine-speed probe for cross-machine baseline comparison),
     plus [network_storm] and [metrics_record] for the two per-event
     service layers, [store_versions] for the store's OCC sessions,
     [ycsb_gen] for the YCSB generator every cell draws from, and
     [cell_setup] for the construction before a cell's first
     transaction;
   - end-to-end: one small uniform-YCSB cell per protocol family
     ([ycsb_2pc], [ycsb_star], [ycsb_lion]), where simulated txns/sec
     is the headline number, plus [ycsb_lion_standard], Lion's
     standard-mode serving path (router, planner observe, store) on
     skewed YCSB, and [tpcc_lion_batch], Lion's batch epoch path on
     skewed TPC-C;
   - sweep: [sweep_pool], short cells through the domain pool that
     [lion compare] and the experiment sweeps use.

   Scenario shapes are part of the BENCH_*.json contract: changing a
   shape (chain count, op size, cell scale) invalidates comparison
   against older files, so bump the scenario name if you must change
   its shape. *)

module Engine = Lion_sim.Engine
module Pqueue = Lion_kernel.Pqueue
module Network = Lion_sim.Network
module Metrics = Lion_sim.Metrics
module Runner = Lion_harness.Runner
module Workloads = Lion_harness.Workloads
module Config = Lion_store.Config
module Kvstore = Lion_store.Kvstore
module Txn = Lion_workload.Txn
module Ycsb = Lion_workload.Ycsb

(* ---- engine drain ------------------------------------------------ *)

(* 16384 concurrent self-rescheduling timer chains — a cluster-scale
   in-flight event population — hopping pseudo-randomly 1..8 µs ahead.
   One op drains [drain_events] events. The same shape runs on both
   engines; only the scheduling API differs (pre-allocated handler +
   int payload vs the seed's closure per event, which is exactly the
   per-event cost the optimization removed). *)
let drain_chains = 16384
let drain_events = 400_000
let delays = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0 |]

let engine_drain () =
  let e = Engine.create () in
  let hops = ref 0 in
  let handler = ref (fun _ -> ()) in
  (handler :=
     fun (i : int) ->
       incr hops;
       if !hops < drain_events then
         Engine.schedule_apply e ~delay:(Array.unsafe_get delays (i land 7)) !handler i);
  for i = 0 to drain_chains - 1 do
    Engine.schedule_apply e ~delay:(Array.unsafe_get delays (i land 7)) !handler i
  done;
  Engine.run_all e ();
  (Engine.events_processed e, 0)

let engine_drain_seed () =
  let e = Seed_engine.create () in
  let hops = ref 0 in
  let processed = ref 0 in
  let handler = ref (fun _ -> ()) in
  (handler :=
     fun (i : int) ->
       incr processed;
       incr hops;
       if !hops < drain_events then
         Seed_engine.schedule e
           ~delay:(Array.unsafe_get delays (i land 7))
           (fun () -> !handler i));
  for i = 0 to drain_chains - 1 do
    Seed_engine.schedule e
      ~delay:(Array.unsafe_get delays (i land 7))
      (fun () -> !handler i)
  done;
  Seed_engine.run_all e ();
  (!processed, 0)

(* ---- pqueue churn ------------------------------------------------ *)

(* Steady-state heap: pop the minimum, push it back a window ahead so
   it lands near the leaves (the DES access pattern). Raw int-keyed
   API; events = ops. *)
let churn_occupancy = 16384
let churn_ops = 400_000

let pqueue_churn () =
  let q = Pqueue.create () in
  for i = 0 to churn_occupancy - 1 do
    Pqueue.push_key q (i * 7) i
  done;
  for _ = 1 to churn_ops do
    let v = Pqueue.pop_min q in
    Pqueue.push_key q (Pqueue.min_key q + (churn_occupancy * 8)) v
  done;
  (churn_ops, 0)

(* ---- network storm ----------------------------------------------- *)

(* Relay ring: every delivery forwards to the next node until the
   message budget is spent. Exercises [Network.send]'s pooled delivery
   path (alloc/release of message records, fault-free branch). *)
let storm_nodes = 64
let storm_msgs = 200_000

let network_storm () =
  let e = Engine.create () in
  let net = Network.create e in
  let sent = ref 0 in
  let rec relay src =
    if !sent < storm_msgs then (
      incr sent;
      let dst = (src + 1) mod storm_nodes in
      Network.send net ~src ~dst ~bytes:128 (fun () -> relay dst))
  in
  for i = 0 to storm_nodes - 1 do
    relay (i * 7 mod storm_nodes)
  done;
  Engine.run_all e ();
  (Engine.events_processed e, 0)

(* ---- geo network ------------------------------------------------- *)

(* The relay ring again, with a 4-region topology and metrics installed
   and a stride that crosses a region boundary on most hops: every send
   takes the region-classification branch, pays the WAN latency model
   and bumps the wan/lan byte counters. Gated against baseline like the
   region-free storm, bounding what the geo branch may allocate on the
   per-message path. *)
let geo_network () =
  let e = Engine.create () in
  let m = Metrics.create e in
  let topology =
    {
      Network.regions = 4;
      region_of = Array.init storm_nodes (fun n -> n * 4 / storm_nodes);
      wan_latency = 50_000.0;
      wan_per_byte = 0.05;
    }
  in
  let net = Network.create ~topology ~metrics:m e in
  let sent = ref 0 in
  let rec relay src =
    if !sent < storm_msgs then (
      incr sent;
      let dst = (src + 17) mod storm_nodes in
      Network.send net ~src ~dst ~bytes:128 (fun () -> relay dst))
  in
  for i = 0 to storm_nodes - 1 do
    relay (i * 7 mod storm_nodes)
  done;
  Engine.run_all e ();
  (Engine.events_processed e, 0)

(* ---- metrics record ---------------------------------------------- *)

(* The per-commit accounting path: latency reservoir, phase breakdown,
   per-second series. One op = [metrics_commits] record_commit calls
   (plus a sprinkling of the cheap counters). *)
let metrics_commits = 200_000

let metrics_record () =
  let e = Engine.create () in
  let m = Metrics.create e in
  let phases = Metrics.phase_times ~execution:120.0 ~prepare:60.0 ~commit:45.0 () in
  for i = 1 to metrics_commits do
    Metrics.record_commit m
      ~latency:(200.0 +. float_of_int (i land 1023))
      ~single_node:(i land 3 = 0) ~remastered:(i land 15 = 0) ~phases;
    if i land 7 = 0 then Metrics.incr m Retries;
    if i land 31 = 0 then Metrics.incr m Aborts
  done;
  (metrics_commits, metrics_commits)

(* ---- store versions ---------------------------------------------- *)

(* OCC sessions over YCSB-shaped transactions on a fresh store: 10
   operations, half of them writes, Zipf 0.6 slots among 1 M keys per
   partition, half the transactions across two of the 48 partitions.
   One op runs [store_txns] sessions, each recording its operations,
   then [try_reserve] and [finalize]; it installs 244,524 distinct keys,
   so every partition's version table grows from empty as it does in a
   cell. The operations are generated once, outside the op. Events are
   store operations. *)
let store_txns = 50_000

let store_ops =
  lazy
    (let gen =
       Ycsb.create { (Ycsb.default_params ~partitions:48 ~nodes:4) with Ycsb.cross_ratio = 0.5 }
     in
     Array.init store_txns (fun _ -> (Ycsb.next gen).Txn.ops))

let store_versions () =
  let txns = Lazy.force store_ops in
  let store = Kvstore.create () in
  let ops = ref 0 in
  Array.iter
    (fun txn_ops ->
      let s = Kvstore.begin_session ~ops:(Array.length txn_ops) store in
      Array.iter
        (fun op ->
          if Txn.is_write op then Kvstore.write s (Txn.key_of op) else Kvstore.read s (Txn.key_of op))
        txn_ops;
      ops := !ops + Array.length txn_ops;
      if Kvstore.try_reserve s then Kvstore.finalize s)
    txns;
  (!ops, store_txns)

(* ---- YCSB generation --------------------------------------------- *)

(* The harness's own per-transaction work: [gen_draws] transactions
   from a fresh skewed, half-cross YCSB generator (the [ycsb-lion]
   benchmark cell's stream: Zipf 0.6 slots, ten operations, the
   partition list), with no protocol behind them. Events are
   transactions, so words/event is words per generated transaction. *)
let gen_draws = 50_000

let ycsb_gen () =
  let gen = Workloads.ycsb ~skew:0.8 ~cross:0.5 Config.default in
  for _ = 1 to gen_draws do
    ignore (Sys.opaque_identity (gen ~time:0.0))
  done;
  (gen_draws, gen_draws)

(* ---- cell set-up ------------------------------------------------- *)

(* The work before a cell's first transaction, as [lionbench] times it
   for its [ycsb-2pc] cell: the uniform, all-cross YCSB generator (a
   Zipf over 1 M keys per partition), [Cluster.create] and
   [Twopc.create]. One op builds [cell_setups] of them; events are
   set-ups, so words/event is words per set-up. Only the first zeta sum
   of the process (in the untimed op) is computed; the timed ops reuse
   it, so the wall gate fails a generator that recomputes it. *)
let cell_setups = 100

let cell_setup () =
  let cfg = Config.default in
  for seed = 1 to cell_setups do
    let gen = Workloads.ycsb ~seed ~cross:1.0 cfg in
    let proto = Lion_protocols.Twopc.create (Lion_store.Cluster.create ~seed cfg) in
    ignore (Sys.opaque_identity (gen, proto))
  done;
  (cell_setups, 0)

(* ---- end-to-end YCSB cells --------------------------------------- *)

(* One small uniform-YCSB cell (all-distributed transactions, as in
   the fig6 ablation) per protocol family: blocking 2PC, Star's
   batched full replication, and Lion's adaptive replica provision in
   batch mode with the LSTM off. Scaled so one op is a few hundred ms
   of wall time. *)
let ycsb_cell ~batch make () =
  let cfg = Config.default in
  let rc = { Runner.quick with warmup = 0.3; duration = 0.7 } in
  let r =
    Runner.run ~batch ~cfg ~make ~gen:(Workloads.ycsb ~cross:1.0 cfg) rc
  in
  (r.Runner.engine_events, r.Runner.commits)

let ycsb_2pc = ycsb_cell ~batch:false (fun cl -> Lion_protocols.Twopc.create cl)
let ycsb_star = ycsb_cell ~batch:true (fun cl -> Lion_protocols.Star.create cl)

let ycsb_lion =
  ycsb_cell ~batch:true (fun cl ->
      Lion_core.Batch_mode.create ~name:"Lion"
        ~config:{ Lion_core.Planner.default_config with Lion_core.Planner.use_lstm = false }
        cl)

(* Lion's standard (ad-hoc) mode with the default planner on skewed,
   half-cross YCSB: every transaction is priced by the router, observed
   by the planner and run through the store, the path [ycsb_lion]'s
   batch engine skips. Same 0.3 + 0.7 s shape as the cells above. *)
let ycsb_lion_standard () =
  let cfg = Config.default in
  let rc = { Runner.quick with warmup = 0.3; duration = 0.7 } in
  let r =
    Runner.run ~cfg
      ~make:(fun cl -> fst (Lion_core.Standard.create_with_planner ~name:"Lion" cl))
      ~gen:(Workloads.ycsb ~skew:0.8 ~cross:0.5 cfg)
      rc
  in
  (r.Runner.engine_events, r.Runner.commits)

(* Lion batch mode on skewed, half-cross TPC-C NewOrder: a whole epoch
   of transactions stays alive until the epoch ends, and each epoch runs
   the analytic path and the batch conflict pass instead of engine and
   network work — the path [lionbench]'s [tpcc-lion-batch] cell
   measures. Same 0.3 + 0.7 s shape as the cells above. *)
let tpcc_lion_batch () =
  let cfg = Config.default in
  let rc = { Runner.quick with warmup = 0.3; duration = 0.7 } in
  let r =
    Runner.run ~batch:true ~cfg
      ~make:(fun cl -> Lion_core.Batch_mode.create ~name:"Lion" cl)
      ~gen:(Workloads.tpcc ~skew:0.8 ~cross:0.5 cfg)
      rc
  in
  (r.Runner.engine_events, r.Runner.commits)

(* ---- sweep pool -------------------------------------------------- *)

(* Four short uniform-YCSB cells (2PC and Star, two seeds each) through
   [Pool.map] on two domains, whatever the host's core count, so the
   cell schedule matches the baseline's; the wall gate is skipped on a
   one-core host (see [Report.two_domain_scenarios]). Minor words of
   helper domains count once they join, so words/event is the cells'
   own and its gate pins that the pool adds nothing per event. *)
let sweep_pool () =
  let cfg = Config.default in
  let rc = { Runner.quick with warmup = 0.1; duration = 0.2 } in
  let cell (seed, batch, make) =
    let r = Runner.run ~seed ~batch ~cfg ~make ~gen:(Workloads.ycsb ~seed ~cross:1.0 cfg) rc in
    (r.Runner.engine_events, r.Runner.commits)
  in
  let twopc cl = Lion_protocols.Twopc.create cl and star cl = Lion_protocols.Star.create cl in
  Lion_harness.Pool.map ~domains:2 cell
    [ (1, false, twopc); (1, true, star); (2, false, twopc); (2, true, star) ]
  |> List.fold_left (fun (e, t) (e', t') -> (e + e', t + t')) (0, 0)

(* ------------------------------------------------------------------ *)

let all : Scenario.spec list =
  [
    {
      Scenario.name = "engine_drain";
      descr =
        Printf.sprintf
          "optimized engine: drain %d events across %d timer chains"
          drain_events drain_chains;
      run = engine_drain;
    };
    {
      name = "engine_drain_seed";
      descr =
        Printf.sprintf
          "frozen seed engine, same drain (baseline + machine-speed probe)";
      run = engine_drain_seed;
    };
    {
      name = "pqueue_churn";
      descr =
        Printf.sprintf "raw heap pop+push at occupancy %d" churn_occupancy;
      run = pqueue_churn;
    };
    {
      name = "network_storm";
      descr =
        Printf.sprintf "%d-hop relay ring over %d nodes (pooled send path)"
          storm_msgs storm_nodes;
      run = network_storm;
    };
    {
      name = "geo_network";
      descr =
        Printf.sprintf
          "%d-hop relay ring over %d nodes in 4 regions (WAN-classified send path)"
          storm_msgs storm_nodes;
      run = geo_network;
    };
    {
      name = "metrics_record";
      descr = Printf.sprintf "%d record_commit calls" metrics_commits;
      run = metrics_record;
    };
    {
      name = "store_versions";
      descr =
        Printf.sprintf "%d YCSB-shaped OCC sessions on a fresh store, 48 partitions"
          store_txns;
      run = store_versions;
    };
    {
      name = "ycsb_gen";
      descr = Printf.sprintf "%d skewed, half-cross YCSB transactions generated" gen_draws;
      run = ycsb_gen;
    };
    {
      name = "cell_setup";
      descr =
        Printf.sprintf "%d uniform-YCSB cell set-ups (generator, cluster, 2PC)" cell_setups;
      run = cell_setup;
    };
    {
      name = "ycsb_2pc";
      descr = "small uniform-YCSB cell, blocking 2PC";
      run = ycsb_2pc;
    };
    {
      name = "ycsb_star";
      descr = "small uniform-YCSB cell, Star (batched full replication)";
      run = ycsb_star;
    };
    {
      name = "ycsb_lion";
      descr = "small uniform-YCSB cell, Lion batch mode (LSTM off)";
      run = ycsb_lion;
    };
    {
      name = "ycsb_lion_standard";
      descr = "small skewed-YCSB cell, Lion standard mode (router + default planner)";
      run = ycsb_lion_standard;
    };
    {
      name = "tpcc_lion_batch";
      descr = "small skewed TPC-C NewOrder cell, Lion batch mode (default planner)";
      run = tpcc_lion_batch;
    };
    {
      name = "sweep_pool";
      descr = "four short uniform-YCSB cells (2PC, Star) through the domain pool";
      run = sweep_pool;
    };
  ]

let find name =
  List.find_opt (fun (s : Scenario.spec) -> s.Scenario.name = name) all

let names () = List.map (fun (s : Scenario.spec) -> s.Scenario.name) all
