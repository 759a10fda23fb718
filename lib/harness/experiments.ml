module Config = Lion_store.Config
module Cluster = Lion_store.Cluster
module Metrics = Lion_sim.Metrics
module Table = Lion_kernel.Table
module Proto = Lion_protocols.Proto
module Planner = Lion_core.Planner

type experiment = ?trace:Runner.trace_sink -> ?scale:float -> unit -> unit

let fmt_k v = Table.cell_float ~decimals:1 (v /. 1000.0)

(* Paper §VI-C1 stress setting for the non-batch comparisons. *)
let slow_remaster cfg =
  { cfg with Config.remaster_delay = 3000.0; remaster_cooldown = 30_000.0 }

let lion_std_config ~predict ~use_lstm =
  { Planner.default_config with Planner.predict; use_lstm }

(* The paper's two line-ups (§VI), in its plotting order. *)
let standard_ids = [ "2pc"; "leap"; "clay"; "lion" ]
let batch_ids = [ "star"; "calvin"; "hermes"; "aria"; "lotus"; "lion-batch" ]

let lineup ~use_lstm ids =
  Protocols.lineup ~config:{ Planner.default_config with Planner.use_lstm } ids

(* One cell per (row, column) pair, run on the pool; the results come
   back as one list per row, in column order. *)
let grid ?trace run rows cols =
  let results =
    Runner.cells ?trace
      (fun ?trace (r, c) -> run ?trace r c)
      (List.concat_map (fun r -> List.map (fun c -> (r, c)) cols) rows)
  in
  let width = List.length cols in
  List.mapi (fun i row -> (row, List.filteri (fun j _ -> j / width = i) results)) rows

(* ------------------------------------------------------------------ *)

let table1_comparison () =
  let t =
    Table.create ~title:"Table I: comparison of Lion with existing approaches"
      ~columns:
        [ "approach"; "key design"; "adaptivity"; "migration-free"; "load balance"; "constraints" ]
  in
  List.iter (Table.add_row t)
    [
      [ "2PC"; "distributed transactions"; "n/a"; "n/a"; "no"; "none" ];
      [ "Schism"; "offline repartitioning"; "no"; "no"; "no"; "none" ];
      [ "Leap"; "aggressive migration"; "yes"; "no"; "no"; "none" ];
      [ "Clay"; "periodical migration"; "yes"; "no"; "yes"; "none" ];
      [ "Hermes"; "deterministic migration"; "yes"; "no"; "yes"; "batches" ];
      [ "Star"; "full replication"; "n/a"; "yes"; "no"; "batches" ];
      [ "Lion"; "adaptive replication"; "yes"; "yes"; "yes"; "none" ];
    ];
  Table.print t

(* ------------------------------------------------------------------ *)

let fig6_ablation ?domains ?trace ?(scale = 1.0) () =
  let cfg = Config.default in
  let rc =
    { Runner.quick with warmup = 9.0 *. scale; duration = 6.0 *. scale }
  in
  let t =
    Table.create
      ~title:
        "Fig 6 / Table II: ablation on uniform YCSB, 100% distributed transactions \
         (throughput, k txn/s)"
      ~columns:[ "variant"; "throughput"; "single-node %"; "vs 2PC" ]
  in
  let results =
    Runner.cells ?domains ?trace
      (fun ?trace variant ->
        Runner.run ?trace ~batch:(Lion_core.Ablation.is_batch variant) ~cfg
          ~make:(fun cl -> Lion_core.Ablation.create ~use_lstm:false variant cl)
          ~gen:(Workloads.ycsb ~cross:1.0 cfg)
          rc)
      Lion_core.Ablation.all
  in
  let base = ref 0.0 in
  List.iter2
    (fun variant (r : Runner.result) ->
      if variant = Lion_core.Ablation.V_2pc then base := r.Runner.throughput;
      Table.add_row t
        [
          Lion_core.Ablation.name variant;
          fmt_k r.Runner.throughput;
          Table.cell_float ~decimals:1 (100.0 *. r.Runner.single_node_ratio);
          Table.cell_float ~decimals:2
            (r.Runner.throughput /. Stdlib.max 1.0 !base);
        ])
    Lion_core.Ablation.all results;
  Table.print t

(* ------------------------------------------------------------------ *)

let crossratio_sweep ?trace ~title ~protocols ~gen_of ?(cfg = Config.default)
    ~scale () =
  let ratios = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  let t =
    Table.create ~title
      ~columns:
        ("protocol"
        :: List.map (fun r -> Printf.sprintf "%d%%" (int_of_float (100.0 *. r))) ratios)
  in
  let rc = { Runner.quick with warmup = 4.0 *. scale; duration = 5.0 *. scale } in
  List.iter
    (fun ((name, _, _), results) ->
      Table.add_row t
        (name :: List.map (fun (r : Runner.result) -> fmt_k r.Runner.throughput) results))
    (grid ?trace
       (fun ?trace (_, is_batch, make) ratio ->
         Runner.run ?trace ~batch:is_batch ~cfg ~make ~gen:(gen_of ratio) rc)
       protocols ratios);
  Table.print t

let fig7_crossratio_nonbatch ?trace ?(scale = 1.0) () =
  let cfg = slow_remaster Config.default in
  crossratio_sweep ?trace
    ~title:
      "Fig 7a: skewed YCSB (skew 0.8), standard execution, remaster delay 3000us \
       (throughput, k txn/s)"
    ~protocols:(lineup ~use_lstm:false standard_ids)
    ~gen_of:(fun ratio -> Workloads.ycsb ~skew:0.8 ~cross:ratio cfg)
    ~cfg ~scale ();
  crossratio_sweep ?trace
    ~title:"Fig 7b: skewed TPC-C (skew 0.8), standard execution (throughput, k txn/s)"
    ~protocols:(lineup ~use_lstm:false standard_ids)
    ~gen_of:(fun ratio -> Workloads.tpcc ~skew:0.8 ~cross:ratio cfg)
    ~cfg ~scale ()

let fig9_crossratio_batch ?trace ?(scale = 1.0) () =
  let cfg = slow_remaster Config.default in
  crossratio_sweep ?trace
    ~title:"Fig 9a: skewed YCSB (skew 0.8), batch execution (throughput, k txn/s)"
    ~protocols:(lineup ~use_lstm:false batch_ids)
    ~gen_of:(fun ratio -> Workloads.ycsb ~skew:0.8 ~cross:ratio cfg)
    ~cfg ~scale ();
  crossratio_sweep ?trace
    ~title:"Fig 9b: skewed TPC-C (skew 0.8), batch execution (throughput, k txn/s)"
    ~protocols:(lineup ~use_lstm:false batch_ids)
    ~gen_of:(fun ratio -> Workloads.tpcc ~skew:0.8 ~cross:ratio cfg)
    ~cfg ~scale ()

(* ------------------------------------------------------------------ *)

(* [gen] builds a fresh generator per protocol, so every protocol sees
   the same transaction stream. *)
let dynamic_sweep ?trace ~title ~protocols ~gen ~total ~cfg ~phases () =
  let t =
    Table.create ~title
      ~columns:
        ("protocol (k txn/s @ second)"
        :: List.init (int_of_float total) (fun i -> string_of_int (i + 1)))
  in
  Table.add_row t
    ("phases"
    :: List.init (int_of_float total) (fun i ->
           match List.find_opt (fun (_, start) -> int_of_float start = i) phases with
           | Some (name, _) -> name
           | None -> ""));
  let rc = { Runner.quick with warmup = 0.0; duration = total; tick_every = 1.0 } in
  let results =
    Runner.cells ?trace
      (fun ?trace (_, is_batch, make) ->
        Runner.run ?trace ~batch:is_batch ~cfg ~make ~gen:(gen ()) rc)
      protocols
  in
  List.iter2
    (fun (name, _, _) (r : Runner.result) ->
      let series = r.Runner.throughput_series in
      let cells =
        List.init (int_of_float total) (fun i ->
            if i < Array.length series then fmt_k series.(i) else "")
      in
      Table.add_row t (name :: cells))
    protocols results;
  Table.print t

let fig8_dynamic_nonbatch ?trace ?(scale = 1.0) () =
  let cfg = slow_remaster Config.default in
  let period = 10.0 *. scale in
  dynamic_sweep ?trace
    ~title:"Fig 8a: dynamic hotspot-interval scenario, standard execution"
    ~protocols:(lineup ~use_lstm:true standard_ids)
    ~gen:(fun () -> Workloads.dynamic_interval ~period cfg)
    ~total:(3.0 *. period) ~cfg
    ~phases:
      [ ("interval-0", 0.0); ("interval-1", period); ("interval-2", 2.0 *. period) ]
    ();
  dynamic_sweep ?trace
    ~title:"Fig 8b: dynamic hotspot-position scenario (A/B/C/D), standard execution"
    ~protocols:(lineup ~use_lstm:true standard_ids)
    ~gen:(fun () -> Workloads.dynamic_position ~period cfg)
    ~total:(4.0 *. period) ~cfg
    ~phases:(Workloads.position_phases cfg ~period)
    ()

let fig10_dynamic_batch ?trace ?(scale = 1.0) () =
  let cfg = slow_remaster Config.default in
  let period = 10.0 *. scale in
  dynamic_sweep ?trace
    ~title:"Fig 10a: dynamic hotspot-interval scenario, batch execution"
    ~protocols:(lineup ~use_lstm:true batch_ids)
    ~gen:(fun () -> Workloads.dynamic_interval ~period cfg)
    ~total:(3.0 *. period) ~cfg
    ~phases:
      [ ("interval-0", 0.0); ("interval-1", period); ("interval-2", 2.0 *. period) ]
    ();
  dynamic_sweep ?trace
    ~title:"Fig 10b: dynamic hotspot-position scenario (A/B/C/D), batch execution"
    ~protocols:(lineup ~use_lstm:true batch_ids)
    ~gen:(fun () -> Workloads.dynamic_position ~period cfg)
    ~total:(4.0 *. period) ~cfg
    ~phases:(Workloads.position_phases cfg ~period)
    ()

(* ------------------------------------------------------------------ *)

let fig11_scalability ?trace ?(scale = 1.0) () =
  let node_counts = [ 4; 6; 8; 10 ] in
  let t =
    Table.create
      ~title:
        "Fig 11: scalability, uniform YCSB 100% cross-partition (throughput, k txn/s)"
      ~columns:("protocol" :: List.map (fun n -> Printf.sprintf "%d nodes" n) node_counts)
  in
  let all_protocols =
    lineup ~use_lstm:false (standard_ids @ batch_ids)
  in
  let rc = { Runner.quick with warmup = 4.0 *. scale; duration = 5.0 *. scale } in
  List.iter
    (fun ((name, is_batch, _), results) ->
      let name = if is_batch && name = "Lion" then "Lion(batch)" else name in
      Table.add_row t
        (name :: List.map (fun (r : Runner.result) -> fmt_k r.Runner.throughput) results))
    (grid ?trace
       (fun ?trace (_, is_batch, make) nodes ->
         let cfg = Config.with_nodes Config.default nodes in
         Runner.run ?trace ~batch:is_batch ~cfg ~make ~gen:(Workloads.ycsb ~cross:1.0 cfg) rc)
       all_protocols node_counts);
  Table.print t

(* ------------------------------------------------------------------ *)

let fig12_migration_analysis ?trace ?(scale = 1.0) () =
  let cfg = Config.default in
  let period = 8.0 *. scale in
  (* Two full cycles of the shifting-interval scenario: the predictor
     learns the recurrence during cycle 1 and pre-replicates ahead of
     the cycle-2 shifts. *)
  let total = 6.0 *. period in
  let rc =
    { Runner.quick with warmup = 0.0; duration = total; tick_every = 1.0 }
  in
  let r =
    Runner.run ?trace ~cfg
      ~make:(fun cl ->
        Lion_core.Standard.create ~name:"Lion"
          ~config:(lion_std_config ~predict:true ~use_lstm:true)
          cl)
      ~gen:(Workloads.dynamic_interval ~period cfg)
      rc
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Fig 12: adaptation across shifting hotspot intervals (period %.0fs; the \
            planner pre-replicates when wv fires ahead of each shift)"
           period)
      ~columns:[ "second"; "phase"; "throughput (k txn/s)"; "net bytes/txn" ]
  in
  let series = r.Runner.throughput_series in
  let bytes = r.Runner.bytes_series in
  Array.iteri
    (fun i tput ->
      (* Drop the partial bucket past the measurement cutoff. *)
      if i < int_of_float total then (
        let b = if i < Array.length bytes then bytes.(i) else 0.0 in
        let phase =
          if Float.rem (float_of_int i) period = 0.0 then
            Printf.sprintf "interval-%d" (int_of_float (float_of_int i /. period) mod 3)
          else ""
        in
        Table.add_row t
          [
            string_of_int (i + 1);
            phase;
            fmt_k tput;
            Table.cell_float ~decimals:0 (if tput > 0.0 then b /. tput else 0.0);
          ]))
    series;
  Table.print t;
  Printf.printf "replica additions: %d, remasters: %d\n\n"
    r.Runner.replica_adds r.Runner.remasters

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

let fig13a_preplication ?trace ?(scale = 1.0) () =
  (* Costly remastering + a recurring shifting hotspot: the predictor,
     having seen cycle 1, pre-replicates before each cycle-2 shift; the
     prediction-less planner reacts only after the shift lands. *)
  let cfg = slow_remaster Config.default in
  let period = 8.0 *. scale in
  let total = 6.0 *. period in
  let rc = { Runner.quick with warmup = 0.0; duration = total; tick_every = 1.0 } in
  let results =
    Runner.cells ?trace
      (fun ?trace predict ->
        Runner.run ?trace ~cfg
          ~make:(fun cl ->
            Lion_core.Standard.create
              ~name:(if predict then "Lion(RW)" else "Lion(R)")
              ~config:(lion_std_config ~predict ~use_lstm:predict)
              cl)
          ~gen:(Workloads.dynamic_interval ~period cfg)
          rc)
      [ true; false ]
  in
  let t =
    Table.create
      ~title:"Fig 13a: adaptation after the cycle-2 hotspot shifts (pre-replication impact)"
      ~columns:
        [
          "variant";
          "post-shift dip (k txn/s, lower period mean)";
          "recovery time (s)";
          "mean throughput (k txn/s)";
        ]
  in
  let report name (r : Runner.result) =
    let series = r.Runner.throughput_series in
    (* Average the 2 buckets after each cycle-2 shift (shifts at 4 and
       5 periods). *)
    let dip =
      let at p =
        let i = int_of_float (p *. period) in
        if i + 1 < Array.length series then (series.(i) +. series.(i + 1)) /. 2.0
        else 0.0
      in
      (at 4.0 +. at 5.0) /. 2.0
    in
    let rec_t =
      recovery_time series
        ~switch_at:(int_of_float (4.0 *. period))
        ~phase_end:(int_of_float (5.0 *. period))
    in
    Table.add_row t
      [
        name;
        fmt_k dip;
        Table.cell_float ~decimals:1 rec_t;
        fmt_k r.Runner.throughput;
      ]
  in
  List.iter2 report [ "Lion with prediction"; "Lion without prediction" ] results;
  Table.print t

let fig13b_batch_opt ?trace ?(scale = 1.0) () =
  let delays = [ 300.0; 1000.0; 3000.0; 10000.0 ] in
  let t =
    Table.create
      ~title:
        "Fig 13b: impact of remastering delay — standard vs batch Lion (throughput, \
         k txn/s)"
      ~columns:
        ("variant"
        :: List.map (fun d -> Printf.sprintf "%.0fus" d) delays)
  in
  (* A continuously shifting hotspot keeps remastering on the critical
     path; standard Lion pays each delay inline, batch Lion overlaps
     them behind one barrier per epoch. *)
  let period = 6.0 *. scale in
  let config = lion_std_config ~predict:false ~use_lstm:false in
  let variants =
    [
      ("Lion standard", false, fun cl -> Lion_core.Standard.create ~name:"Lion-std" ~config cl);
      ("Lion batch", true, fun cl -> Lion_core.Batch_mode.create ~name:"Lion-batch" ~config cl);
    ]
  in
  let rc = { Runner.quick with warmup = 0.0; duration = 3.0 *. period; tick_every = 1.0 } in
  List.iter
    (fun ((name, _, _), results) ->
      Table.add_row t
        (name :: List.map (fun (r : Runner.result) -> fmt_k r.Runner.throughput) results))
    (grid ?trace
       (fun ?trace (_, is_batch, make) delay ->
         let cfg =
           { Config.default with Config.remaster_delay = delay; remaster_cooldown = 10.0 *. delay }
         in
         Runner.run ?trace ~batch:is_batch ~cfg ~make
           ~gen:(Workloads.dynamic_interval ~period cfg)
           rc)
       variants delays);
  Table.print t

(* ------------------------------------------------------------------ *)

let fig14_latency ?trace ?(scale = 1.0) () =
  let cfg = slow_remaster Config.default in
  let rc = { Runner.quick with warmup = 4.0 *. scale; duration = 5.0 *. scale } in
  let results =
    Runner.cells ?trace
      (fun ?trace (name, is_batch, make) ->
        ( name,
          Runner.run ?trace ~batch:is_batch ~cfg ~make
            ~gen:(Workloads.ycsb ~skew:0.8 ~cross:0.5 cfg)
            rc ))
      (lineup ~use_lstm:false batch_ids)
  in
  let t =
    Table.create ~title:"Fig 14a: latency percentiles, batch protocols (ms)"
      ~columns:[ "protocol"; "p50"; "p75"; "p90"; "p95" ]
  in
  List.iter
    (fun (name, r) ->
      Table.add_row t
        [
          name;
          Table.cell_float ~decimals:1 (r.Runner.p50 /. 1000.0);
          Table.cell_float ~decimals:1 (r.Runner.p75 /. 1000.0);
          Table.cell_float ~decimals:1 (r.Runner.p90 /. 1000.0);
          Table.cell_float ~decimals:1 (r.Runner.p95 /. 1000.0);
        ])
    results;
  Table.print t;
  let t2 =
    Table.create ~title:"Fig 14b: latency breakdown by phase (% of transaction time)"
      ~columns:
        ("protocol" :: List.map Metrics.phase_name Metrics.all_phases)
  in
  List.iter
    (fun (name, r) ->
      Table.add_row t2
        (name
        :: List.map
             (fun (_, frac) -> Table.cell_float ~decimals:0 (100.0 *. frac))
             r.Runner.phase_fractions))
    results;
  Table.print t2

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper's figures: the design knobs DESIGN.md
   calls out — remaster ping-pong damping, the replica budget, and the
   prediction weight w_p (§IV-C's tunable).                            *)
(* ------------------------------------------------------------------ *)

let abl_cooldown ?trace ?(scale = 1.0) () =
  let cooldowns = [ 3_000.0; 10_000.0; 30_000.0; 100_000.0 ] in
  let t =
    Table.create
      ~title:
        "Ablation: remaster cooldown (ping-pong damping), Lion standard, skewed \
         YCSB 100% cross, remaster 3000us (throughput, k txn/s)"
      ~columns:("metric" :: List.map (fun c -> Printf.sprintf "%.0fms" (c /. 1000.0)) cooldowns)
  in
  let results =
    Runner.cells ?trace
      (fun ?trace cooldown ->
        let cfg =
          {
            Config.default with
            Config.remaster_delay = 3000.0;
            remaster_cooldown = cooldown;
          }
        in
        let rc = { Runner.quick with warmup = 5.0 *. scale; duration = 5.0 *. scale } in
        Runner.run ?trace ~cfg
          ~make:(fun cl ->
            Lion_core.Standard.create ~name:"Lion"
              ~config:(lion_std_config ~predict:false ~use_lstm:false)
              cl)
          ~gen:(Workloads.ycsb ~skew:0.8 ~cross:1.0 cfg)
          rc)
      cooldowns
  in
  Table.add_row t
    ("throughput" :: List.map (fun (r : Runner.result) -> fmt_k r.Runner.throughput) results);
  Table.add_row t
    ("remasters/s"
    :: List.map
         (fun (r : Runner.result) ->
           Table.cell_int (int_of_float (float_of_int r.Runner.remasters /. (10.0 *. scale))))
         results);
  Table.print t

let abl_replicas ?trace ?(scale = 1.0) () =
  let caps = [ 2; 3; 4 ] in
  let t =
    Table.create
      ~title:
        "Ablation: max replicas per partition, Lion standard, uniform YCSB 100% \
         cross (throughput, k txn/s)"
      ~columns:("metric" :: List.map (fun c -> Printf.sprintf "max %d" c) caps)
  in
  let results =
    Runner.cells ?trace
      (fun ?trace cap ->
        let cfg = { Config.default with Config.max_replicas = cap } in
        let rc = { Runner.quick with warmup = 6.0 *. scale; duration = 5.0 *. scale } in
        Runner.run ?trace ~cfg
          ~make:(fun cl ->
            Lion_core.Standard.create ~name:"Lion"
              ~config:(lion_std_config ~predict:false ~use_lstm:false)
              cl)
          ~gen:(Workloads.ycsb ~cross:1.0 cfg)
          rc)
      caps
  in
  Table.add_row t
    ("throughput" :: List.map (fun (r : Runner.result) -> fmt_k r.Runner.throughput) results);
  Table.add_row t
    ("single-node %"
    :: List.map
         (fun (r : Runner.result) ->
           Table.cell_float ~decimals:1 (100.0 *. r.Runner.single_node_ratio))
         results);
  Table.print t

let abl_wp ?trace ?(scale = 1.0) () =
  let weights = [ 0.0; 0.5; 1.0; 2.0 ] in
  let cfg = Config.default in
  let period = 8.0 *. scale in
  let t =
    Table.create
      ~title:
        "Ablation: prediction weight w_p (SIV-C), Lion standard on the \
         hotspot-interval scenario"
      ~columns:("metric" :: List.map (fun w -> Printf.sprintf "w_p=%.1f" w) weights)
  in
  let results =
    Runner.cells ?trace
      (fun ?trace w_p ->
        let config =
          {
            (lion_std_config ~predict:(w_p > 0.0) ~use_lstm:false) with
            Planner.w_p;
          }
        in
        let rc =
          { Runner.quick with warmup = 0.0; duration = 2.0 *. period; tick_every = 1.0 }
        in
        Runner.run ?trace ~cfg
          ~make:(fun cl -> Lion_core.Standard.create ~name:"Lion" ~config cl)
          ~gen:(Workloads.dynamic_interval ~period cfg)
          rc)
      weights
  in
  Table.add_row t
    ("mean throughput"
    :: List.map (fun (r : Runner.result) -> fmt_k r.Runner.throughput) results);
  Table.add_row t
    ("recovery after shift (s)"
    :: List.map
         (fun (r : Runner.result) ->
           Table.cell_float ~decimals:1
             (recovery_time r.Runner.throughput_series ~switch_at:(int_of_float period)
                ~phase_end:(int_of_float (2.0 *. period))))
         results);
  Table.print t

let abl_forecaster ?(scale = 1.0) () =
  ignore scale;
  (* Forecast accuracy on synthetic arrival-rate series shaped like the
     dynamic scenarios: level shifts, ramps and a periodic pattern.
     Supports §IV-C1's claim that the LSTM beats linear regression and
     a vanilla RNN on these shapes. Reported as MSE on the trailing 20%
     of each (normalised) series. *)
  let series =
    [
      ( "level-shift",
        Array.init 120 (fun i -> if i mod 40 < 20 then 20.0 else 100.0) );
      ("ramp", Array.init 120 (fun i -> 10.0 +. (2.0 *. float_of_int (i mod 40))));
      ( "periodic",
        Array.init 120 (fun i ->
            60.0 +. (40.0 *. sin (float_of_int i /. 4.0))) );
    ]
  in
  let window = 10 in
  let t =
    Table.create
      ~title:
        "Ablation: forecaster comparison (test MSE on normalised series; lower is \
         better)"
      ~columns:[ "series"; "linear reg"; "vanilla RNN"; "LSTM" ]
  in
  List.iter
    (fun (name, raw) ->
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
      Table.add_row t
        [
          name;
          Table.cell_float ~decimals:4 (Lion_nn.Linreg.mse lr_model test_set);
          Table.cell_float ~decimals:4 (Lion_nn.Rnn.mse rnn test_set);
          Table.cell_float ~decimals:4 (Lion_nn.Lstm.mse lstm test_set);
        ])
    series;
  Table.print t

let abl_read_secondary ?trace ?(scale = 1.0) () =
  (* The bounded-staleness extension: on a read-mostly cross-partition
     workload, serving all-read groups at local secondaries removes the
     promotions/2PC those reads would otherwise need. *)
  let cfg = Config.default in
  let t =
    Table.create
      ~title:
        "Ablation: read-at-secondary extension, read-mostly YCSB (5% writes), \
         100% cross (throughput, k txn/s)"
      ~columns:[ "variant"; "throughput"; "single-node %" ]
  in
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
  let results =
    Runner.cells ?trace
      (fun ?trace read_at_secondary ->
        Runner.run ?trace ~cfg
          ~make:(fun cl ->
            Lion_core.Standard.create ~name:"Lion" ~read_at_secondary
              ~config:(lion_std_config ~predict:false ~use_lstm:false)
              cl)
          ~gen:(gen ())
          { Runner.quick with warmup = 6.0 *. scale; duration = 5.0 *. scale })
      [ false; true ]
  in
  let row name (r : Runner.result) =
    Table.add_row t
      [
        name;
        fmt_k r.Runner.throughput;
        Table.cell_float ~decimals:1 (100.0 *. r.Runner.single_node_ratio);
      ]
  in
  List.iter2 row [ "Lion (primary-only reads, paper)"; "Lion + read-at-secondary" ] results;
  Table.print t

let abl_failover ?trace ?(scale = 1.0) () =
  (* High availability under the replication Lion builds on: crash a
     node mid-run, watch failover promote surviving secondaries within
     the election delay, then recover the node and let the planner
     repopulate it. *)
  let cfg = Config.default in
  let fail_at = 6.0 *. scale and recover_at = 12.0 *. scale in
  let total = 18.0 *. scale in
  let r =
    Runner.run ?trace ~cfg
      ~setup:(fun cl ->
        let engine = cl.Lion_store.Cluster.engine in
        Lion_sim.Engine.at engine ~time:(Lion_sim.Engine.seconds fail_at) (fun () ->
            Lion_store.Cluster.fail_node cl 0);
        Lion_sim.Engine.at engine ~time:(Lion_sim.Engine.seconds recover_at) (fun () ->
            Lion_store.Cluster.recover_node cl 0))
      ~make:(fun cl ->
        Lion_core.Standard.create ~name:"Lion"
          ~config:(lion_std_config ~predict:false ~use_lstm:false)
          cl)
      ~gen:(Workloads.ycsb ~cross:0.5 cfg)
      { Runner.quick with warmup = 0.0; duration = total; tick_every = 1.0 }
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation: node failure at %.0fs, recovery at %.0fs (Lion standard, \
            50%% cross YCSB)"
           fail_at recover_at)
      ~columns:[ "second"; "k txn/s"; "event" ]
  in
  Array.iteri
    (fun i tput ->
      (* Drop the partial bucket past the measurement cutoff. *)
      if i < int_of_float total then (
        let event =
          if i = int_of_float fail_at then "node 0 fails"
          else if i = int_of_float recover_at then "node 0 recovers"
          else ""
        in
        Table.add_row t [ string_of_int (i + 1); fmt_k tput; event ]))
    r.Runner.throughput_series;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Chaos experiments: the fault-injection engine (lib/sim/fault.ml)
   drives crashes, partitions and stragglers through [Config.fault_plan]
   — the same failover machinery as abl_failover, plus RPC timeouts,
   retries and availability accounting. See docs/FAULTS.md.             *)
(* ------------------------------------------------------------------ *)

module Fault = Lion_sim.Fault
module Engine = Lion_sim.Engine

let lion_std_make cl =
  Lion_core.Standard.create ~name:"Lion"
    ~config:(lion_std_config ~predict:false ~use_lstm:false)
    cl

let fmt_ttr v =
  if v = infinity then "not yet" else Table.cell_float ~decimals:0 v

let fault_crash_sweep ?trace ?(scale = 1.0) () =
  (* 0, 1 or 2 simultaneous crashes at 6 s, recovery at 16 s. With the
     default round-robin placement and 2 replicas, losing nodes 1 and 2
     together orphans the partitions whose both copies lived there:
     they stay unavailable (clients time out and retry) until recovery
     resynchronises the stale primary. *)
  let crash_at = 6.0 *. scale and downtime = 10.0 *. scale in
  let total = 20.0 *. scale in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Chaos: k nodes crash at %.0fs, recover at %.0fs (Lion standard, 50%% \
            cross YCSB)"
           crash_at (crash_at +. downtime))
      ~columns:
        [
          "crashed";
          "k txn/s";
          "aborts";
          "timeouts";
          "retries";
          "drops";
          "unavail (s)";
          "recovery (s)";
          "goodput under fault";
        ]
  in
  let crashes = [ 0; 1; 2 ] in
  let results =
    Runner.cells ?trace
      (fun ?trace k ->
        let plan =
          List.concat_map
            (fun node ->
              Fault.crash_recover ~node
                ~at:(Engine.seconds crash_at)
                ~downtime:(Engine.seconds downtime))
            (List.init k (fun i -> i + 1))
        in
        let cfg = { Config.default with Config.fault_plan = plan } in
        Runner.run ?trace ~cfg ~make:lion_std_make
          ~gen:(Workloads.ycsb ~cross:0.5 cfg)
          { Runner.quick with warmup = 0.0; duration = total; tick_every = 1.0 })
      crashes
  in
  List.iter2
    (fun k (r : Runner.result) ->
      Table.add_row t
        [
          string_of_int k;
          fmt_k r.Runner.throughput;
          Table.cell_int r.Runner.aborts;
          Table.cell_int r.Runner.timeouts;
          Table.cell_int r.Runner.retries;
          Table.cell_int r.Runner.drops;
          Table.cell_float ~decimals:1 r.Runner.unavail_seconds;
          fmt_ttr r.Runner.time_to_recover;
          fmt_k r.Runner.goodput_under_fault;
        ])
    crashes results;
  Table.print t

let fault_partition ?trace ?(scale = 1.0) () =
  (* Split-brain: {0,1} | {2,3} for 5 s. No node dies, so availability
     stays nominal — the damage shows up as cross-group RPC timeouts
     (2PC keeps paying them; Lion's remastering pulls work local). *)
  let at = 5.0 *. scale and duration = 5.0 *. scale in
  let total = 15.0 *. scale in
  let plan =
    Fault.split_brain
      ~groups:[ [ 0; 1 ]; [ 2; 3 ] ]
      ~at:(Engine.seconds at)
      ~duration:(Engine.seconds duration)
  in
  let cfg = { Config.default with Config.fault_plan = plan } in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Chaos: network partition {0,1}|{2,3} from %.0fs to %.0fs (50%% cross \
            YCSB)"
           at (at +. duration))
      ~columns:
        [ "protocol"; "k txn/s"; "aborts"; "timeouts"; "retries"; "drops" ]
  in
  let results =
    Runner.cells ?trace
      (fun ?trace (name, batch, make) ->
        ( name,
          Runner.run ?trace ~batch ~cfg ~make
            ~gen:(Workloads.ycsb ~cross:0.5 cfg)
            { Runner.quick with warmup = 0.0; duration = total; tick_every = 1.0 } ))
      (Protocols.lineup
         ~config:(lion_std_config ~predict:false ~use_lstm:false)
         [ "2pc"; "lion" ])
  in
  List.iter
    (fun (name, (r : Runner.result)) ->
      Table.add_row t
        [
          name;
          fmt_k r.Runner.throughput;
          Table.cell_int r.Runner.aborts;
          Table.cell_int r.Runner.timeouts;
          Table.cell_int r.Runner.retries;
          Table.cell_int r.Runner.drops;
        ])
    results;
  Table.print t

let fault_straggler ?trace ?(scale = 1.0) () =
  (* One slow node: all CPU work on node 2 stretched by the factor from
     5 s to 15 s. No messages are lost, so this isolates the latency
     and throughput cost of a straggler from the failover machinery. *)
  let from_ = 5.0 *. scale and until = 15.0 *. scale in
  let total = 20.0 *. scale in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Chaos: node 2 CPU slowed from %.0fs to %.0fs (Lion standard, 50%% \
            cross YCSB)"
           from_ until)
      ~columns:[ "slowdown"; "k txn/s"; "mean latency (ms)"; "p95 (ms)" ]
  in
  let factors = [ 1.0; 4.0; 16.0 ] in
  let results =
    Runner.cells ?trace
      (fun ?trace factor ->
        let plan =
          Fault.slow_node ~node:2 ~factor
            ~from_:(Engine.seconds from_)
            ~until:(Engine.seconds until)
        in
        let cfg = { Config.default with Config.fault_plan = plan } in
        Runner.run ?trace ~cfg ~make:lion_std_make
          ~gen:(Workloads.ycsb ~cross:0.5 cfg)
          { Runner.quick with warmup = 0.0; duration = total; tick_every = 1.0 })
      factors
  in
  List.iter2
    (fun factor (r : Runner.result) ->
      Table.add_row t
        [
          Printf.sprintf "%.0fx" factor;
          fmt_k r.Runner.throughput;
          Table.cell_float ~decimals:1 (r.Runner.mean_latency /. 1000.0);
          Table.cell_float ~decimals:1 (r.Runner.p95 /. 1000.0);
        ])
    factors results;
  Table.print t

(* ------------------------------------------------------------------ *)

let overload_sweep ?trace ?(scale = 1.0) () =
  Overload.print_sweeps (Overload.sweep ?trace ~scale ());
  Overload.print_sweeps (Overload.sweep ?trace ~scale ~protect:true ())

let metastable ?trace ?(scale = 1.0) () =
  Overload.print_metastable (Overload.metastable_pair ?trace ~scale ())

let elastic_scale ?(scale = 1.0) () =
  (* The experiment has two fixed sizes (a 30 s diurnal cycle with the
     LSTM, a 10 s smoke cycle on the trend fallback) rather than a
     continuous scale — any reduced scale selects the smoke run. *)
  Elastic.print_report (Elastic.run ~smoke:(scale < 1.0) ())

(* ------------------------------------------------------------------ *)

let registry =
  [
    ("table1", "Table I: qualitative comparison", fun ?trace:_ _ -> table1_comparison ());
    ("fig6", "Fig 6 / Table II: ablation study", fun ?trace s -> fig6_ablation ?trace ~scale:s ());
    ( "fig7",
      "Fig 7: cross-partition ratio sweep (standard)",
      fun ?trace s -> fig7_crossratio_nonbatch ?trace ~scale:s () );
    ( "fig8",
      "Fig 8: dynamic workloads (standard)",
      fun ?trace s -> fig8_dynamic_nonbatch ?trace ~scale:s () );
    ( "fig9",
      "Fig 9: cross-partition ratio sweep (batch)",
      fun ?trace s -> fig9_crossratio_batch ?trace ~scale:s () );
    ( "fig10",
      "Fig 10: dynamic workloads (batch)",
      fun ?trace s -> fig10_dynamic_batch ?trace ~scale:s () );
    ( "fig11",
      "Fig 11: scalability 4-10 nodes",
      fun ?trace s -> fig11_scalability ?trace ~scale:s () );
    ( "fig12",
      "Fig 12: migration/remastering analysis",
      fun ?trace s -> fig12_migration_analysis ?trace ~scale:s () );
    ( "fig13a",
      "Fig 13a: pre-replication impact",
      fun ?trace s -> fig13a_preplication ?trace ~scale:s () );
    ( "fig13b",
      "Fig 13b: batch optimization impact",
      fun ?trace s -> fig13b_batch_opt ?trace ~scale:s () );
    ("fig14", "Fig 14: latency analysis", fun ?trace s -> fig14_latency ?trace ~scale:s ());
    ( "abl_cooldown",
      "Ablation: remaster cooldown damping",
      fun ?trace s -> abl_cooldown ?trace ~scale:s () );
    ( "abl_replicas",
      "Ablation: replica budget",
      fun ?trace s -> abl_replicas ?trace ~scale:s () );
    ("abl_wp", "Ablation: prediction weight w_p", fun ?trace s -> abl_wp ?trace ~scale:s ());
    ( "abl_forecaster",
      "Ablation: LSTM vs RNN vs linear regression",
      fun ?trace:_ s -> abl_forecaster ~scale:s () );
    ( "abl_failover",
      "Ablation: node failure and recovery",
      fun ?trace s -> abl_failover ?trace ~scale:s () );
    ( "abl_read_secondary",
      "Ablation: bounded-staleness reads at secondaries",
      fun ?trace s -> abl_read_secondary ?trace ~scale:s () );
    ( "fault_crash_sweep",
      "Chaos: 0/1/2 node crashes with recovery",
      fun ?trace s -> fault_crash_sweep ?trace ~scale:s () );
    ( "fault_partition",
      "Chaos: split-brain network partition",
      fun ?trace s -> fault_partition ?trace ~scale:s () );
    ( "fault_straggler",
      "Chaos: slow-node CPU straggler",
      fun ?trace s -> fault_straggler ?trace ~scale:s () );
    ( "overload_sweep",
      "Overload: open-loop offered-load sweep past saturation",
      fun ?trace s -> overload_sweep ?trace ~scale:s () );
    ( "metastable",
      "Overload: metastable-failure repro, with and without protection",
      fun ?trace s -> metastable ?trace ~scale:s () );
    ( "elastic_scale",
      "Membership: forecast-driven autoscale over a diurnal cycle",
      fun ?trace:_ s -> elastic_scale ~scale:s () );
    ( "geo",
      "Geo: cross-region ratio sweep and WAN partition (docs/GEO.md)",
      fun ?trace s ->
        Geo.print_sweep ~regions:2 (Geo.sweep ?trace ~scale:s ());
        Geo.print_partition ~scale:s (Geo.wan_partition ?trace ~scale:s ()) );
  ]
