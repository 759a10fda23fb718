module Config = Lion_store.Config
module Metrics = Lion_sim.Metrics
module Table = Lion_kernel.Table
module Planner = Lion_core.Planner
module Fault = Lion_sim.Fault
module Engine = Lion_sim.Engine

(* Every simulated experiment is a list of Runner cells plus one of
   the Table renderers: the cells run on the pool, and the table is
   printed from their results in cell order. *)

let fmt_k = Runner.fmt_k

(* Paper §VI-C1 stress setting for the non-batch comparisons. *)
let slow_remaster cfg =
  { cfg with Config.remaster_delay = 3000.0; remaster_cooldown = 30_000.0 }

let lion_std_config ~predict ~use_lstm =
  { Planner.default_config with Planner.predict; use_lstm }

(* Lion standard; without [config] it runs with neither prediction nor
   the LSTM, as in the ablations and chaos runs. *)
let lion_std ?(name = "Lion") ?read_at_secondary
    ?(config = lion_std_config ~predict:false ~use_lstm:false) cl =
  Lion_core.Standard.create ~name ?read_at_secondary ~config cl

(* The paper's two line-ups (§VI), in its plotting order. *)
let standard_ids = [ "2pc"; "leap"; "clay"; "lion" ]
let batch_ids = [ "star"; "calvin"; "hermes"; "aria"; "lotus"; "lion-batch" ]

let lineup ~use_lstm ids =
  Protocols.lineup ~config:{ Planner.default_config with Planner.use_lstm } ids

(* Run shapes: [window] measures after a warmup; [timeline] measures
   from second 0 for the per-second tables. *)
let window warmup duration = { Runner.quick with warmup; duration }
let timeline total = window 0.0 total

let proto_cell (_, batch, make) ~cfg ~gen rc = Runner.cell ~batch ~cfg ~make ~gen rc
let labelled lineup f = List.map (fun ((name, _, _) as p) -> (name, f p)) lineup

(* Run labelled cells on the pool; the labels stay with their results. *)
let run_labelled ?trace cells =
  List.combine (List.map fst cells) (Runner.run_cells ?trace (List.map snd cells))

(* A grid of throughputs: one cell per (protocol, column) pair. *)
let throughput_grid ?trace ~title label rows cols col_name cell =
  Table.grid ~title label (List.map col_name cols)
    (fun r -> fmt_k r.Runner.throughput)
    (List.map2 (fun (name, _, _) rs -> (name, rs)) rows (Runner.run_grid ?trace cell rows cols))

(* Per-second tables: one row per whole measured second, and a phase
   label on the second each phase starts in. *)
let seconds total series =
  List.init
    (Stdlib.min (int_of_float total) (Array.length series))
    (fun i -> (string_of_int (i + 1), i))

let phase_at phases i =
  match List.find_opt (fun (_, start) -> int_of_float start = i) phases with
  | Some (name, _) -> name
  | None -> ""

let intervals ~period n =
  List.init n (fun k -> (Printf.sprintf "interval-%d" (k mod 3), float_of_int k *. period))

(* ------------------------------------------------------------------ *)

let table1_comparison ?trace:_ _ =
  Table.grid ~title:"Table I: comparison of Lion with existing approaches" "approach"
    [ "key design"; "adaptivity"; "migration-free"; "load balance"; "constraints" ]
    Fun.id
    [
      ("2PC", [ "distributed transactions"; "n/a"; "n/a"; "no"; "none" ]);
      ("Schism", [ "offline repartitioning"; "no"; "no"; "no"; "none" ]);
      ("Leap", [ "aggressive migration"; "yes"; "no"; "no"; "none" ]);
      ("Clay", [ "periodical migration"; "yes"; "no"; "yes"; "none" ]);
      ("Hermes", [ "deterministic migration"; "yes"; "no"; "yes"; "batches" ]);
      ("Star", [ "full replication"; "n/a"; "yes"; "no"; "batches" ]);
      ("Lion", [ "adaptive replication"; "yes"; "yes"; "yes"; "none" ]);
    ]

(* ------------------------------------------------------------------ *)

let fig6_ablation ?domains ?trace ?(scale = 1.0) () =
  let cfg = Config.default in
  let variants = Lion_core.Ablation.all in
  let results =
    Runner.run_cells ?domains ?trace
      (List.map
         (fun variant ->
           Runner.cell ~batch:(Lion_core.Ablation.is_batch variant) ~cfg
             ~make:(Lion_core.Ablation.create ~use_lstm:false variant)
             ~gen:(fun () -> Workloads.ycsb ~cross:1.0 cfg)
             (window (9.0 *. scale) (6.0 *. scale)))
         variants)
  in
  let base = (List.assoc Lion_core.Ablation.V_2pc (List.combine variants results)).throughput in
  Table.by_row
    ~title:
      "Fig 6 / Table II: ablation on uniform YCSB, 100% distributed transactions \
       (throughput, k txn/s)"
    "variant"
    [
      Runner.k_txn ~header:"throughput" ();
      Runner.single_node;
      Runner.fixed ~decimals:2 "vs 2PC" (fun r -> r.throughput /. Stdlib.max 1.0 base);
    ]
    (List.combine (List.map Lion_core.Ablation.name variants) results)

(* ------------------------------------------------------------------ *)

let crossratio ?trace ~scale ~title ids workload =
  let cfg = slow_remaster Config.default in
  throughput_grid ?trace ~title "protocol" (lineup ~use_lstm:false ids)
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
    (fun r -> Printf.sprintf "%d%%" (int_of_float (100.0 *. r)))
    (fun p cross ->
      proto_cell p ~cfg ~gen:(fun () -> workload ~cross cfg) (window (4.0 *. scale) (5.0 *. scale)))

let ycsb_skewed ~cross cfg = Workloads.ycsb ~skew:0.8 ~cross cfg
let tpcc_skewed ~cross cfg = Workloads.tpcc ~skew:0.8 ~cross cfg

let fig7 ?trace scale =
  crossratio ?trace ~scale
    ~title:
      "Fig 7a: skewed YCSB (skew 0.8), standard execution, remaster delay 3000us \
       (throughput, k txn/s)"
    standard_ids ycsb_skewed;
  crossratio ?trace ~scale
    ~title:"Fig 7b: skewed TPC-C (skew 0.8), standard execution (throughput, k txn/s)"
    standard_ids tpcc_skewed

let fig9 ?trace scale =
  crossratio ?trace ~scale
    ~title:"Fig 9a: skewed YCSB (skew 0.8), batch execution (throughput, k txn/s)" batch_ids
    ycsb_skewed;
  crossratio ?trace ~scale
    ~title:"Fig 9b: skewed TPC-C (skew 0.8), batch execution (throughput, k txn/s)" batch_ids
    tpcc_skewed

(* ------------------------------------------------------------------ *)

(* Each protocol's cell builds its own generator, so every protocol
   sees the same transaction stream. *)
let dynamic_sweep ?trace ~title ~protocols ~gen ~total ~phases cfg =
  let seconds = List.init (int_of_float total) Fun.id in
  let results =
    Runner.run_cells ?trace (List.map (fun p -> proto_cell p ~cfg ~gen (timeline total)) protocols)
  in
  let per_second (r : Runner.result) i =
    let series = r.throughput_series in
    if i < Array.length series then fmt_k series.(i) else ""
  in
  Table.grid ~title "protocol (k txn/s @ second)"
    (List.map (fun i -> string_of_int (i + 1)) seconds)
    Fun.id
    (("phases", List.map (phase_at phases) seconds)
    :: List.map2 (fun (name, _, _) r -> (name, List.map (per_second r) seconds)) protocols results)

let dynamic_figs ?trace ~scale fig mode ids =
  let cfg = slow_remaster Config.default in
  let period = 10.0 *. scale in
  let sweep part scenario ~cycles gen phases =
    dynamic_sweep ?trace
      ~title:(Printf.sprintf "Fig %s%s: dynamic %s, %s execution" fig part scenario mode)
      ~protocols:(lineup ~use_lstm:true ids) ~gen ~total:(cycles *. period) ~phases cfg
  in
  sweep "a" "hotspot-interval scenario" ~cycles:3.0
    (fun () -> Workloads.dynamic_interval ~period cfg)
    (intervals ~period 3);
  sweep "b" "hotspot-position scenario (A/B/C/D)" ~cycles:4.0
    (fun () -> Workloads.dynamic_position ~period cfg)
    (Workloads.position_phases cfg ~period)

(* ------------------------------------------------------------------ *)

let fig11 ?trace scale =
  let protocols =
    List.map
      (fun (name, batch, make) ->
        ((if batch && name = "Lion" then "Lion(batch)" else name), batch, make))
      (lineup ~use_lstm:false (standard_ids @ batch_ids))
  in
  throughput_grid ?trace
    ~title:"Fig 11: scalability, uniform YCSB 100% cross-partition (throughput, k txn/s)"
    "protocol" protocols [ 4; 6; 8; 10 ] (Printf.sprintf "%d nodes")
    (fun p nodes ->
      let cfg = Config.with_nodes Config.default nodes in
      proto_cell p ~cfg
        ~gen:(fun () -> Workloads.ycsb ~cross:1.0 cfg)
        (window (4.0 *. scale) (5.0 *. scale)))

(* ------------------------------------------------------------------ *)

let fig12 ?trace scale =
  let cfg = Config.default in
  let period = 8.0 *. scale in
  (* Two full cycles of the shifting-interval scenario: the predictor
     learns the recurrence during cycle 1 and pre-replicates ahead of
     the cycle-2 shifts. *)
  let total = 6.0 *. period in
  let r =
    Runner.run_cell ?trace
      (Runner.cell ~cfg
         ~make:(lion_std ~config:(lion_std_config ~predict:true ~use_lstm:true))
         ~gen:(fun () -> Workloads.dynamic_interval ~period cfg)
         (timeline total))
  in
  let series = r.throughput_series and bytes = r.bytes_series in
  Table.by_row
    ~title:
      (Printf.sprintf
         "Fig 12: adaptation across shifting hotspot intervals (period %gs; the planner \
          pre-replicates when wv fires ahead of each shift)"
         period)
    "second"
    [
      ("phase", phase_at (intervals ~period 6));
      ("throughput (k txn/s)", fun i -> fmt_k series.(i));
      ( "net bytes/txn",
        fun i ->
          let b = if i < Array.length bytes then bytes.(i) else 0.0 in
          Table.cell_float ~decimals:0 (if series.(i) > 0.0 then b /. series.(i) else 0.0) );
    ]
    (seconds total series);
  Printf.printf "replica additions: %d, remasters: %d\n\n" r.replica_adds r.remasters

(* ------------------------------------------------------------------ *)

(* Seconds from a phase switch until throughput first reaches 90% of the
   steady level it attains by the end of that phase. *)
let recovery_time series ~switch_at ~phase_end =
  let switch_at = Stdlib.min switch_at (Array.length series - 1) in
  let phase_end = Stdlib.min phase_end (Array.length series) in
  if phase_end <= switch_at + 1 then 0.0
  else (
    let steady =
      let tail = Array.sub series (phase_end - 2) (phase_end - (phase_end - 2)) in
      Array.fold_left Stdlib.max 0.0 tail
    in
    let target = 0.9 *. steady in
    let rec find i = if i >= phase_end then phase_end - switch_at else if series.(i) >= target then i - switch_at else find (i + 1) in
    float_of_int (find switch_at))

let fig13a ?trace scale =
  (* Costly remastering + a recurring shifting hotspot: the predictor,
     having seen cycle 1, pre-replicates before each cycle-2 shift; the
     prediction-less planner reacts only after the shift lands. *)
  let cfg = slow_remaster Config.default in
  let period = 8.0 *. scale in
  let variant predict =
    Runner.cell ~cfg
      ~make:
        (lion_std
           ~name:(if predict then "Lion(RW)" else "Lion(R)")
           ~config:(lion_std_config ~predict ~use_lstm:predict))
      ~gen:(fun () -> Workloads.dynamic_interval ~period cfg)
      (timeline (6.0 *. period))
  in
  (* Average the 2 buckets after each cycle-2 shift (shifts at 4 and 5
     periods). *)
  let dip (r : Runner.result) =
    let series = r.throughput_series in
    let at p =
      let i = int_of_float (p *. period) in
      if i + 1 < Array.length series then (series.(i) +. series.(i + 1)) /. 2.0 else 0.0
    in
    (at 4.0 +. at 5.0) /. 2.0
  in
  Table.by_row
    ~title:"Fig 13a: adaptation after the cycle-2 hotspot shifts (pre-replication impact)"
    "variant"
    [
      ("post-shift dip (k txn/s, lower period mean)", fun r -> fmt_k (dip r));
      Runner.fixed "recovery time (s)" (fun r ->
          recovery_time r.throughput_series
            ~switch_at:(int_of_float (4.0 *. period))
            ~phase_end:(int_of_float (5.0 *. period)));
      Runner.k_txn ~header:"mean throughput (k txn/s)" ();
    ]
    (run_labelled ?trace
       [ ("Lion with prediction", variant true); ("Lion without prediction", variant false) ])

let fig13b ?trace scale =
  (* A continuously shifting hotspot keeps remastering on the critical
     path; standard Lion pays each delay inline, batch Lion overlaps
     them behind one barrier per epoch. *)
  let period = 6.0 *. scale in
  let config = lion_std_config ~predict:false ~use_lstm:false in
  throughput_grid ?trace
    ~title:"Fig 13b: impact of remastering delay — standard vs batch Lion (throughput, k txn/s)"
    "variant"
    [
      ("Lion standard", false, fun cl -> Lion_core.Standard.create ~name:"Lion-std" ~config cl);
      ("Lion batch", true, fun cl -> Lion_core.Batch_mode.create ~name:"Lion-batch" ~config cl);
    ]
    [ 300.0; 1000.0; 3000.0; 10000.0 ]
    (Printf.sprintf "%.0fus")
    (fun p delay ->
      let cfg =
        { Config.default with Config.remaster_delay = delay; remaster_cooldown = 10.0 *. delay }
      in
      proto_cell p ~cfg
        ~gen:(fun () -> Workloads.dynamic_interval ~period cfg)
        (timeline (3.0 *. period)))

(* ------------------------------------------------------------------ *)

let fig14 ?trace scale =
  let cfg = slow_remaster Config.default in
  let results =
    run_labelled ?trace
      (labelled (lineup ~use_lstm:false batch_ids) (fun p ->
           proto_cell p ~cfg
             ~gen:(fun () -> Workloads.ycsb ~skew:0.8 ~cross:0.5 cfg)
             (window (4.0 *. scale) (5.0 *. scale))))
  in
  Table.by_row ~title:"Fig 14a: latency percentiles, batch protocols (ms)" "protocol"
    [
      Runner.ms "p50" (fun r -> r.p50);
      Runner.ms "p75" (fun r -> r.p75);
      Runner.ms "p90" (fun r -> r.p90);
      Runner.ms "p95" (fun r -> r.p95);
    ]
    results;
  Table.by_row ~title:"Fig 14b: latency breakdown by phase (% of transaction time)" "protocol"
    (List.map
       (fun phase ->
         Runner.fixed ~decimals:0 (Metrics.phase_name phase) (fun r ->
             100.0 *. List.assoc phase r.phase_fractions))
       Metrics.all_phases)
    results

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper's figures: the design knobs DESIGN.md
   calls out — remaster ping-pong damping, the replica budget, and the
   prediction weight w_p (§IV-C's tunable).                            *)
(* ------------------------------------------------------------------ *)

let abl_cooldown ?trace scale =
  let cell cooldown =
    let cfg =
      { Config.default with Config.remaster_delay = 3000.0; remaster_cooldown = cooldown }
    in
    Runner.cell ~cfg ~make:lion_std
      ~gen:(fun () -> Workloads.ycsb ~skew:0.8 ~cross:1.0 cfg)
      (window (5.0 *. scale) (5.0 *. scale))
  in
  Table.by_metric
    ~title:
      "Ablation: remaster cooldown (ping-pong damping), Lion standard, skewed YCSB 100% \
       cross, remaster 3000us (throughput, k txn/s)"
    "metric"
    [
      Runner.k_txn ~header:"throughput" ();
      Runner.tally "remasters/s" (fun r ->
          int_of_float (float_of_int r.remasters /. (5.0 *. scale)));
    ]
    (run_labelled ?trace
       (List.map
          (fun c -> (Printf.sprintf "%.0fms" (c /. 1000.0), cell c))
          [ 3_000.0; 10_000.0; 30_000.0; 100_000.0 ]))

let abl_replicas ?trace scale =
  let cell cap =
    let cfg = { Config.default with Config.max_replicas = cap } in
    Runner.cell ~cfg ~make:lion_std
      ~gen:(fun () -> Workloads.ycsb ~cross:1.0 cfg)
      (window (6.0 *. scale) (5.0 *. scale))
  in
  Table.by_metric
    ~title:
      "Ablation: max replicas per partition, Lion standard, uniform YCSB 100% cross \
       (throughput, k txn/s)"
    "metric"
    [ Runner.k_txn ~header:"throughput" (); Runner.single_node ]
    (run_labelled ?trace
       (List.map (fun c -> (Printf.sprintf "max %d" c, cell c)) [ 2; 3; 4 ]))

let abl_wp ?trace scale =
  let cfg = Config.default in
  let period = 8.0 *. scale in
  let cell w_p =
    let config = { (lion_std_config ~predict:(w_p > 0.0) ~use_lstm:false) with Planner.w_p } in
    Runner.cell ~cfg ~make:(lion_std ~config)
      ~gen:(fun () -> Workloads.dynamic_interval ~period cfg)
      (timeline (2.0 *. period))
  in
  Table.by_metric
    ~title:
      "Ablation: prediction weight w_p (SIV-C), Lion standard on the hotspot-interval \
       scenario"
    "metric"
    [
      Runner.k_txn ~header:"mean throughput" ();
      Runner.fixed "recovery after shift (s)" (fun r ->
          recovery_time r.throughput_series ~switch_at:(int_of_float period)
            ~phase_end:(int_of_float (2.0 *. period)));
    ]
    (run_labelled ?trace
       (List.map (fun w -> (Printf.sprintf "w_p=%.1f" w, cell w)) [ 0.0; 0.5; 1.0; 2.0 ]))

let abl_forecaster ?trace:_ _ =
  (* Forecast accuracy on synthetic arrival-rate series shaped like the
     dynamic scenarios: level shifts, ramps and a periodic pattern.
     Supports §IV-C1's claim that the LSTM beats linear regression and
     a vanilla RNN on these shapes. Reported as MSE on the trailing 20%
     of each (normalised) series. *)
  let series =
    [
      ("level-shift", Array.init 120 (fun i -> if i mod 40 < 20 then 20.0 else 100.0));
      ("ramp", Array.init 120 (fun i -> 10.0 +. (2.0 *. float_of_int (i mod 40))));
      ("periodic", Array.init 120 (fun i -> 60.0 +. (40.0 *. sin (float_of_int i /. 4.0))));
    ]
  in
  let window = 10 in
  let mses raw =
    let _norm, samples = Lion_nn.Dataset.windows_normalized raw ~window in
    let split = Array.length samples * 8 / 10 in
    let train_set = Array.sub samples 0 split in
    let test_set = Array.sub samples split (Array.length samples - split) in
    let lr_model = Lion_nn.Linreg.create ~window in
    Lion_nn.Linreg.fit lr_model train_set;
    let rnn = Lion_nn.Rnn.create ~input:1 () in
    ignore (Lion_nn.Rnn.train rnn train_set ~epochs:120 ~lr:0.01);
    let lstm = Lion_nn.Lstm.create ~input:1 () in
    ignore (Lion_nn.Lstm.train lstm train_set ~epochs:120 ~lr:0.01);
    [
      Lion_nn.Linreg.mse lr_model test_set;
      Lion_nn.Rnn.mse rnn test_set;
      Lion_nn.Lstm.mse lstm test_set;
    ]
  in
  Table.grid
    ~title:"Ablation: forecaster comparison (test MSE on normalised series; lower is better)"
    "series"
    [ "linear reg"; "vanilla RNN"; "LSTM" ]
    (Table.cell_float ~decimals:4)
    (List.map (fun (name, raw) -> (name, mses raw)) series)

let abl_read_secondary ?trace scale =
  (* The bounded-staleness extension: on a read-mostly cross-partition
     workload, serving all-read groups at local secondaries removes the
     promotions/2PC those reads would otherwise need. *)
  let cfg = Config.default in
  let gen () =
    let params =
      {
        (Lion_workload.Ycsb.workload_mix
           ~partitions:(Config.total_partitions cfg)
           ~nodes:cfg.Config.nodes 'B')
        with
        Lion_workload.Ycsb.cross_ratio = 1.0;
      }
    in
    let g = Lion_workload.Ycsb.create ~seed:7 params in
    fun ~time:_ -> Lion_workload.Ycsb.next g
  in
  let cell read_at_secondary =
    Runner.cell ~cfg ~make:(lion_std ~read_at_secondary) ~gen
      (window (6.0 *. scale) (5.0 *. scale))
  in
  Table.by_row
    ~title:
      "Ablation: read-at-secondary extension, read-mostly YCSB (5% writes), 100% cross \
       (throughput, k txn/s)"
    "variant"
    [ Runner.k_txn ~header:"throughput" (); Runner.single_node ]
    (run_labelled ?trace
       [
         ("Lion (primary-only reads, paper)", cell false); ("Lion + read-at-secondary", cell true);
       ])

let abl_failover ?trace scale =
  (* High availability under the replication Lion builds on: crash a
     node mid-run, watch failover promote surviving secondaries within
     the election delay, then recover the node and let the planner
     repopulate it. *)
  let cfg = Config.default in
  let fail_at = 6.0 *. scale and recover_at = 12.0 *. scale in
  let total = 18.0 *. scale in
  let setup cl =
    let engine = cl.Lion_store.Cluster.engine in
    Engine.at engine ~time:(Engine.seconds fail_at) (fun () -> Lion_store.Cluster.fail_node cl 0);
    Engine.at engine ~time:(Engine.seconds recover_at) (fun () ->
        Lion_store.Cluster.recover_node cl 0)
  in
  let r =
    Runner.run_cell ?trace
      (Runner.cell ~cfg ~setup ~make:lion_std
         ~gen:(fun () -> Workloads.ycsb ~cross:0.5 cfg)
         (timeline total))
  in
  let series = r.throughput_series in
  Table.by_row
    ~title:
      (Printf.sprintf
         "Ablation: node failure at %.0fs, recovery at %.0fs (Lion standard, 50%% cross YCSB)"
         fail_at recover_at)
    "second"
    [
      ("k txn/s", fun i -> fmt_k series.(i));
      ("event", phase_at [ ("node 0 fails", fail_at); ("node 0 recovers", recover_at) ]);
    ]
    (seconds total series)

(* ------------------------------------------------------------------ *)
(* Chaos experiments: the fault-injection engine (lib/sim/fault.ml)
   drives crashes, partitions and stragglers through [Config.fault_plan]
   — the same failover machinery as abl_failover, plus RPC timeouts,
   retries and availability accounting. See docs/FAULTS.md.             *)
(* ------------------------------------------------------------------ *)

let fault_cols = [ Runner.k_txn (); Runner.aborts; Runner.timeouts; Runner.retries; Runner.drops ]

let chaos_cell ?(make = fun cl -> lion_std cl) ?(batch = false) plan total =
  let cfg = { Config.default with Config.fault_plan = plan } in
  Runner.cell ~batch ~cfg ~make ~gen:(fun () -> Workloads.ycsb ~cross:0.5 cfg) (timeline total)

let fault_crash_sweep ?trace scale =
  (* 0, 1 or 2 simultaneous crashes at 6 s, recovery at 16 s. With the
     default round-robin placement and 2 replicas, losing nodes 1 and 2
     together orphans the partitions whose both copies lived there:
     they stay unavailable (clients time out and retry) until recovery
     resynchronises the stale primary. *)
  let crash_at = 6.0 *. scale and downtime = 10.0 *. scale in
  let cell k =
    chaos_cell
      (List.concat_map
         (fun node ->
           Fault.crash_recover ~node ~at:(Engine.seconds crash_at)
             ~downtime:(Engine.seconds downtime))
         (List.init k (fun i -> i + 1)))
      (20.0 *. scale)
  in
  Table.by_row
    ~title:
      (Printf.sprintf
         "Chaos: k nodes crash at %.0fs, recover at %.0fs (Lion standard, 50%% cross YCSB)"
         crash_at (crash_at +. downtime))
    "crashed"
    (fault_cols
    @ [
        Runner.fixed "unavail (s)" (fun r -> r.unavail_seconds);
        ( "recovery (s)",
          fun r ->
            if r.time_to_recover = infinity then "not yet"
            else Table.cell_float ~decimals:0 r.time_to_recover );
        ("goodput under fault", fun r -> fmt_k r.goodput_under_fault);
      ])
    (run_labelled ?trace (List.map (fun k -> (string_of_int k, cell k)) [ 0; 1; 2 ]))

let fault_partition ?trace scale =
  (* Split-brain: {0,1} | {2,3} for 5 s. No node dies, so availability
     stays nominal — the damage shows up as cross-group RPC timeouts
     (2PC keeps paying them; Lion's remastering pulls work local). *)
  let at = 5.0 *. scale and duration = 5.0 *. scale in
  let plan =
    Fault.split_brain
      ~groups:[ [ 0; 1 ]; [ 2; 3 ] ]
      ~at:(Engine.seconds at) ~duration:(Engine.seconds duration)
  in
  Table.by_row
    ~title:
      (Printf.sprintf "Chaos: network partition {0,1}|{2,3} from %.0fs to %.0fs (50%% cross YCSB)"
         at (at +. duration))
    "protocol" fault_cols
    (run_labelled ?trace
       (labelled
          (Protocols.lineup
             ~config:(lion_std_config ~predict:false ~use_lstm:false)
             [ "2pc"; "lion" ])
          (fun (_, batch, make) -> chaos_cell ~make ~batch plan (15.0 *. scale))))

let fault_straggler ?trace scale =
  (* One slow node: all CPU work on node 2 stretched by the factor from
     5 s to 15 s. No messages are lost, so this isolates the latency
     and throughput cost of a straggler from the failover machinery. *)
  let from_ = 5.0 *. scale and until = 15.0 *. scale in
  let cell factor =
    chaos_cell
      (Fault.slow_node ~node:2 ~factor ~from_:(Engine.seconds from_)
         ~until:(Engine.seconds until))
      (20.0 *. scale)
  in
  Table.by_row
    ~title:
      (Printf.sprintf
         "Chaos: node 2 CPU slowed from %.0fs to %.0fs (Lion standard, 50%% cross YCSB)" from_
         until)
    "slowdown"
    [
      Runner.k_txn ();
      Runner.ms "mean latency (ms)" (fun r -> r.mean_latency);
      Runner.ms "p95 (ms)" (fun r -> r.p95);
    ]
    (run_labelled ?trace
       (List.map (fun f -> (Printf.sprintf "%.0fx" f, cell f)) [ 1.0; 4.0; 16.0 ]))

(* ------------------------------------------------------------------ *)

let registry =
  [
    ("table1", "Table I: qualitative comparison", table1_comparison);
    ( "fig6",
      "Fig 6 / Table II: ablation study",
      fun ?trace scale -> fig6_ablation ?trace ~scale () );
    ("fig7", "Fig 7: cross-partition ratio sweep (standard)", fig7);
    ( "fig8",
      "Fig 8: dynamic workloads (standard)",
      fun ?trace scale -> dynamic_figs ?trace ~scale "8" "standard" standard_ids );
    ("fig9", "Fig 9: cross-partition ratio sweep (batch)", fig9);
    ( "fig10",
      "Fig 10: dynamic workloads (batch)",
      fun ?trace scale -> dynamic_figs ?trace ~scale "10" "batch" batch_ids );
    ("fig11", "Fig 11: scalability 4-10 nodes", fig11);
    ("fig12", "Fig 12: migration/remastering analysis", fig12);
    ("fig13a", "Fig 13a: pre-replication impact", fig13a);
    ("fig13b", "Fig 13b: batch optimization impact", fig13b);
    ("fig14", "Fig 14: latency analysis", fig14);
    ("abl_cooldown", "Ablation: remaster cooldown damping", abl_cooldown);
    ("abl_replicas", "Ablation: replica budget", abl_replicas);
    ("abl_wp", "Ablation: prediction weight w_p", abl_wp);
    ("abl_forecaster", "Ablation: LSTM vs RNN vs linear regression", abl_forecaster);
    ("abl_failover", "Ablation: node failure and recovery", abl_failover);
    ( "abl_read_secondary",
      "Ablation: bounded-staleness reads at secondaries",
      abl_read_secondary );
    ("fault_crash_sweep", "Chaos: 0/1/2 node crashes with recovery", fault_crash_sweep);
    ("fault_partition", "Chaos: split-brain network partition", fault_partition);
    ("fault_straggler", "Chaos: slow-node CPU straggler", fault_straggler);
    ( "overload_sweep",
      "Overload: open-loop offered-load sweep past saturation",
      (* One pool call per table, so each table follows its own
         runs' trace reports. *)
      fun ?trace scale ->
        List.iter
          (fun protect -> Overload.print_sweeps (Overload.sweep ?trace ~scale [ protect ]))
          [ false; true ] );
    ( "metastable",
      "Overload: metastable-failure repro, with and without protection",
      fun ?trace scale -> Overload.print_metastable (Overload.metastable_pair ?trace ~scale ()) );
    ( "elastic_scale",
      "Membership: forecast-driven autoscale over a diurnal cycle",
      (* Two fixed sizes (a 30 s diurnal cycle with the LSTM, a 10 s
         smoke cycle on the trend fallback): any reduced scale selects
         the smoke run. *)
      fun ?trace scale -> Elastic.print_report (Elastic.run ?trace ~smoke:(scale < 1.0) ()) );
    ( "geo",
      "Geo: cross-region ratio sweep and WAN partition (docs/GEO.md)",
      fun ?trace scale ->
        Geo.print_sweep ~regions:2 (Geo.sweep ?trace ~scale ());
        Geo.print_partition (Geo.wan_partition ?trace ~scale ()) );
  ]
