(* Tests for the prediction pipeline: templates, classification,
   forecasting, the wv trigger and pre-replication hints. *)

module Template = Lion_predict.Template
module Classify = Lion_predict.Classify
module Forecaster = Lion_predict.Forecaster
module Predictor = Lion_predict.Predictor
module Txn = Lion_workload.Txn
module Kvstore = Lion_store.Kvstore
module Rng = Lion_kernel.Rng

let sec = Lion_sim.Engine.seconds

(* --- templates --- *)

let test_template_same_parts_same_id () =
  let t = Template.create ~interval:(sec 1.0) () in
  let a = Template.observe t ~time:0.0 ~parts:[ 1; 2 ] in
  let b = Template.observe t ~time:10.0 ~parts:[ 2; 1 ] in
  Alcotest.(check int) "label by partition set" a b;
  Alcotest.(check int) "one template" 1 (Template.template_count t)

let test_template_distinct_parts_distinct_ids () =
  let t = Template.create ~interval:(sec 1.0) () in
  let a = Template.observe t ~time:0.0 ~parts:[ 1; 2 ] in
  let b = Template.observe t ~time:0.0 ~parts:[ 1; 3 ] in
  Alcotest.(check bool) "different ids" true (a <> b)

(* One label per partition set, whatever the order or repeats of the
   list it is observed with; a different set is a new label. *)
let test_template_normalises_parts () =
  let t = Template.create ~interval:(sec 1.0) () in
  let a = Template.observe t ~time:0.0 ~parts:[ 3; 1; 3 ] in
  let b = Template.observe t ~time:0.0 ~parts:[ 1; 3 ] in
  let c = Template.observe t ~time:0.0 ~parts:[ 3; 1 ] in
  let d = Template.observe t ~time:0.0 ~parts:[ 1; 2; 3 ] in
  Alcotest.(check int) "repeats and order ignored" a b;
  Alcotest.(check int) "reversed" a c;
  Alcotest.(check bool) "new set, new id" true (d <> a);
  Alcotest.(check (list int)) "stored sorted" [ 1; 3 ] (Template.parts_of t a);
  Alcotest.(check (float 1e-9)) "three arrivals" 3.0 (Template.total_arrivals t a);
  Alcotest.(check int) "two templates" 2 (Template.template_count t)

let test_template_arrival_rate_buckets () =
  let t = Template.create ~interval:(sec 1.0) () in
  let id = Template.observe t ~time:(sec 0.5) ~parts:[ 1 ] in
  ignore (Template.observe t ~time:(sec 0.6) ~parts:[ 1 ]);
  ignore (Template.observe t ~time:(sec 1.5) ~parts:[ 1 ]);
  let ar = Template.arrival_rate t id ~window:2 in
  Alcotest.(check (array (float 1e-9))) "per-bucket counts" [| 2.0; 1.0 |] ar

let test_template_upto_excludes_partial () =
  let t = Template.create ~interval:(sec 1.0) () in
  let id = Template.observe t ~time:(sec 0.1) ~parts:[ 1 ] in
  ignore (Template.observe t ~time:(sec 1.1) ~parts:[ 1 ]);
  let ar = Template.arrival_rate ~upto:1 t id ~window:1 in
  Alcotest.(check (array (float 1e-9))) "only complete bucket" [| 1.0 |] ar

let test_template_eviction_keeps_hot () =
  let t = Template.create ~capacity:2 ~interval:(sec 1.0) () in
  let hot = Template.observe t ~time:0.0 ~parts:[ 1 ] in
  for _ = 1 to 10 do
    ignore (Template.observe t ~time:0.0 ~parts:[ 1 ])
  done;
  ignore (Template.observe t ~time:0.0 ~parts:[ 2 ]);
  ignore (Template.observe t ~time:0.0 ~parts:[ 3 ]);
  Alcotest.(check int) "capacity respected" 2 (Template.template_count t);
  Alcotest.(check (list int)) "hot survives" [ 1 ] (Template.parts_of t hot)

let test_template_hottest_first () =
  let t = Template.create ~interval:(sec 1.0) () in
  ignore (Template.observe t ~time:0.0 ~parts:[ 1 ]);
  let hot = Template.observe t ~time:0.0 ~parts:[ 2 ] in
  ignore (Template.observe t ~time:0.0 ~parts:[ 2 ]);
  Alcotest.(check int) "hottest leads" hot (List.hd (Template.ids t))

(* --- classification --- *)

let observe_series t ~parts ~buckets =
  Array.iteri
    (fun i count ->
      for _ = 1 to count do
        ignore (Template.observe t ~time:(sec (float_of_int i +. 0.5)) ~parts)
      done)
    buckets

let test_classify_merges_correlated () =
  let t = Template.create ~interval:(sec 1.0) () in
  (* Two templates rising together, one flat. *)
  observe_series t ~parts:[ 1; 2 ] ~buckets:[| 1; 2; 4; 8 |];
  observe_series t ~parts:[ 3; 4 ] ~buckets:[| 1; 2; 4; 8 |];
  observe_series t ~parts:[ 5 ] ~buckets:[| 5; 5; 5; 5 |];
  let classes = Classify.classify ~upto:4 t ~window:4 ~beta:0.05 in
  (* The correlated pair must share a class; the flat one is separate. *)
  let class_of parts =
    List.find
      (fun (w : Classify.workload) ->
        List.exists (fun id -> Template.parts_of t id = parts) w.Classify.templates)
      classes
  in
  Alcotest.(check int) "correlated merged"
    (class_of [ 1; 2 ]).Classify.class_id
    (class_of [ 3; 4 ]).Classify.class_id;
  Alcotest.(check bool) "flat separate" true
    ((class_of [ 5 ]).Classify.class_id <> (class_of [ 1; 2 ]).Classify.class_id)

let test_classify_series_sums_members () =
  let t = Template.create ~interval:(sec 1.0) () in
  observe_series t ~parts:[ 1; 2 ] ~buckets:[| 2; 2 |];
  observe_series t ~parts:[ 3; 4 ] ~buckets:[| 2; 2 |];
  let classes = Classify.classify ~upto:2 t ~window:2 ~beta:0.1 in
  let w = List.hd classes in
  Alcotest.(check (array (float 1e-9))) "summed ar" [| 4.0; 4.0 |] w.Classify.series

let test_classify_idle_bucket () =
  let t = Template.create ~interval:(sec 1.0) () in
  observe_series t ~parts:[ 1 ] ~buckets:[| 3; 3 |];
  (* A template seen only long ago: zero in the window. *)
  ignore (Template.observe t ~time:0.0 ~parts:[ 9 ]);
  let classes = Classify.classify ~upto:20 t ~window:2 ~beta:0.1 in
  (* Every template is idle in the distant window -> one idle class. *)
  Alcotest.(check bool) "idle class exists" true (List.length classes >= 1)

let test_sample_templates_weighted () =
  let t = Template.create ~interval:(sec 1.0) () in
  observe_series t ~parts:[ 1; 2 ] ~buckets:[| 50 |];
  observe_series t ~parts:[ 3; 4 ] ~buckets:[| 1 |];
  let classes = Classify.classify ~upto:1 t ~window:1 ~beta:1.0 in
  let w = List.hd classes in
  let sampled = Classify.sample_templates w t ~rng:(Rng.create 3) ~k:1 in
  Alcotest.(check int) "k respected" 1 (List.length sampled)

(* --- forecaster --- *)

let test_forecaster_trend_fallback () =
  let f = Forecaster.create ~use_lstm:false () in
  let pred = Forecaster.forecast f ~key:0 ~series:[| 10.0; 20.0; 30.0 |] ~horizon:1 in
  Alcotest.(check (float 1e-9)) "linear extrapolation" 40.0 pred;
  let pred2 = Forecaster.forecast f ~key:0 ~series:[| 10.0; 20.0; 30.0 |] ~horizon:2 in
  Alcotest.(check (float 1e-9)) "two steps" 50.0 pred2

let test_forecaster_nonnegative () =
  let f = Forecaster.create ~use_lstm:false () in
  let pred = Forecaster.forecast f ~key:0 ~series:[| 30.0; 20.0; 10.0 |] ~horizon:5 in
  Alcotest.(check bool) "clamped at zero" true (pred >= 0.0)

let test_forecaster_short_series_fallback () =
  let f = Forecaster.create ~use_lstm:true ~window:10 () in
  (* Too short for the LSTM path; must fall back, not crash. *)
  let pred = Forecaster.forecast f ~key:1 ~series:[| 5.0 |] ~horizon:1 in
  Alcotest.(check (float 1e-9)) "single point" 5.0 pred;
  Alcotest.(check int) "no models trained" 0 (Forecaster.trained_models f)

let test_forecaster_lstm_trains_once_series_long () =
  let f = Forecaster.create ~use_lstm:true ~window:5 ~epochs:10 () in
  let series = Array.init 30 (fun i -> 100.0 +. (10.0 *. sin (float_of_int i))) in
  let pred = Forecaster.forecast f ~key:7 ~series ~horizon:1 in
  Alcotest.(check bool) "finite forecast" true (Float.is_finite pred);
  Alcotest.(check int) "model trained" 1 (Forecaster.trained_models f);
  Alcotest.(check bool) "retrain counted" true (Forecaster.retrain_count f >= 1)

let test_forecaster_lstm_tracks_level () =
  let f = Forecaster.create ~use_lstm:true ~window:5 ~epochs:60 () in
  let series = Array.make 40 50.0 in
  let pred = Forecaster.forecast f ~key:9 ~series ~horizon:1 in
  Alcotest.(check bool)
    (Printf.sprintf "constant series ~50 (got %.1f)" pred)
    true
    (Float.abs (pred -. 50.0) < 15.0)

(* --- predictor --- *)

let drive predictor ~parts ~from_s ~to_s ~rate =
  for s = from_s to to_s - 1 do
    for i = 0 to rate - 1 do
      let time = sec (float_of_int s +. (float_of_int i /. float_of_int rate)) in
      let ops = List.map (fun p -> Txn.read (Kvstore.key ~part:p ~slot:0)) parts in
      Predictor.observe predictor ~time (Txn.make ~id:0 (Array.of_list ops))
    done
  done

let test_predictor_quiet_on_steady_workload () =
  let p = Predictor.create ~use_lstm:false () in
  drive p ~parts:[ 1; 2 ] ~from_s:0 ~to_s:15 ~rate:50;
  let hints = Predictor.analyze p ~time:(sec 15.0) in
  Alcotest.(check (list (pair (list int) (float 1.0))))
    "no pre-replication on steady load" []
    (List.map (fun h -> (h.Predictor.parts, h.Predictor.weight)) hints);
  Alcotest.(check bool) "wv small" true (Predictor.last_wv p < 0.3)

let test_predictor_fires_on_rising_workload () =
  let p = Predictor.create ~use_lstm:false ~gamma:0.2 () in
  (* Template rising steeply over time. *)
  for s = 0 to 14 do
    let rate = 5 * (s + 1) in
    drive p ~parts:[ 3; 4 ] ~from_s:s ~to_s:(s + 1) ~rate
  done;
  let hints = Predictor.analyze p ~time:(sec 15.0) in
  Alcotest.(check bool) "wv above gamma" true (Predictor.last_wv p > 0.2);
  Alcotest.(check bool) "emits co-access hints" true (hints <> []);
  List.iter
    (fun h ->
      Alcotest.(check (list int)) "hint names the rising pair" [ 3; 4 ] h.Predictor.parts;
      Alcotest.(check bool) "positive weight" true (h.Predictor.weight > 0.0))
    hints

let test_predictor_disabled_when_wp_zero () =
  let p = Predictor.create ~use_lstm:false ~w_p:0.0 () in
  drive p ~parts:[ 1; 2 ] ~from_s:0 ~to_s:5 ~rate:10;
  Alcotest.(check int) "no templates tracked" 0 (Predictor.template_count p);
  Alcotest.(check (list unit)) "no hints" []
    (List.map (fun _ -> ()) (Predictor.analyze p ~time:(sec 5.0)))

let test_predictor_single_partition_templates_skipped () =
  let p = Predictor.create ~use_lstm:false ~gamma:0.0 () in
  for s = 0 to 14 do
    drive p ~parts:[ 7 ] ~from_s:s ~to_s:(s + 1) ~rate:(5 * (s + 1))
  done;
  let hints = Predictor.analyze p ~time:(sec 15.0) in
  Alcotest.(check (list unit)) "single-partition hints filtered" []
    (List.map (fun _ -> ()) hints)

let test_classify_beta_extremes () =
  let t = Template.create ~interval:(sec 1.0) () in
  observe_series t ~parts:[ 1; 2 ] ~buckets:[| 1; 2; 4 |];
  observe_series t ~parts:[ 3; 4 ] ~buckets:[| 4; 2; 1 |];
  (* beta = 1 merges everything (distance can never exceed 1 for
     non-negative rates); beta = 0 keeps distinct shapes apart. *)
  let merged = Classify.classify ~upto:3 t ~window:3 ~beta:1.0 in
  let split = Classify.classify ~upto:3 t ~window:3 ~beta:0.0 in
  Alcotest.(check int) "beta=1 one class" 1 (List.length merged);
  Alcotest.(check bool) "beta=0 separates" true (List.length split >= 2)

let test_forecaster_retrains_on_drift () =
  let f = Forecaster.create ~use_lstm:true ~window:4 ~epochs:10 ~retrain_mse:0.01 () in
  let rising = Array.init 30 (fun i -> float_of_int i) in
  ignore (Forecaster.forecast f ~key:1 ~series:rising ~horizon:1);
  let first = Forecaster.retrain_count f in
  (* A completely different regime on the same key: MSE drifts above
     the threshold, forcing a retrain. *)
  let flipped = Array.init 30 (fun i -> float_of_int (30 - i)) in
  ignore (Forecaster.forecast f ~key:1 ~series:flipped ~horizon:1);
  Alcotest.(check bool) "retrained on drift" true (Forecaster.retrain_count f > first)

let test_predictor_wv_scale_free () =
  (* Same relative shift at 10x the volume must produce a similar
     normalised wv. *)
  let run scale =
    let p = Predictor.create ~use_lstm:false ~gamma:1e9 () in
    for s = 0 to 14 do
      drive p ~parts:[ 1; 2 ] ~from_s:s ~to_s:(s + 1) ~rate:(scale * (s + 1))
    done;
    ignore (Predictor.analyze p ~time:(sec 15.0));
    Predictor.last_wv p
  in
  let small = run 2 and large = run 20 in
  Alcotest.(check bool)
    (Printf.sprintf "wv scale-free (%.3f vs %.3f)" small large)
    true
    (Float.abs (small -. large) < 0.5 *. Stdlib.max small large)

let () =
  Alcotest.run "lion_predict"
    [
      ( "template",
        [
          Alcotest.test_case "same parts same id" `Quick test_template_same_parts_same_id;
          Alcotest.test_case "distinct parts distinct ids" `Quick
            test_template_distinct_parts_distinct_ids;
          Alcotest.test_case "parts normalised" `Quick test_template_normalises_parts;
          Alcotest.test_case "arrival-rate buckets" `Quick test_template_arrival_rate_buckets;
          Alcotest.test_case "upto excludes partial bucket" `Quick
            test_template_upto_excludes_partial;
          Alcotest.test_case "eviction keeps hot" `Quick test_template_eviction_keeps_hot;
          Alcotest.test_case "hottest first" `Quick test_template_hottest_first;
        ] );
      ( "classify",
        [
          Alcotest.test_case "merges correlated" `Quick test_classify_merges_correlated;
          Alcotest.test_case "series sums members" `Quick test_classify_series_sums_members;
          Alcotest.test_case "idle class" `Quick test_classify_idle_bucket;
          Alcotest.test_case "weighted sampling" `Quick test_sample_templates_weighted;
        ] );
      ( "forecaster",
        [
          Alcotest.test_case "trend fallback" `Quick test_forecaster_trend_fallback;
          Alcotest.test_case "non-negative" `Quick test_forecaster_nonnegative;
          Alcotest.test_case "short series fallback" `Quick
            test_forecaster_short_series_fallback;
          Alcotest.test_case "lstm trains" `Slow test_forecaster_lstm_trains_once_series_long;
          Alcotest.test_case "lstm tracks level" `Slow test_forecaster_lstm_tracks_level;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "quiet on steady load" `Quick
            test_predictor_quiet_on_steady_workload;
          Alcotest.test_case "fires on rising load" `Quick
            test_predictor_fires_on_rising_workload;
          Alcotest.test_case "w_p = 0 disables" `Quick test_predictor_disabled_when_wp_zero;
          Alcotest.test_case "single-partition hints skipped" `Quick
            test_predictor_single_partition_templates_skipped;
          Alcotest.test_case "wv scale-free" `Quick test_predictor_wv_scale_free;
        ] );
      ( "classify-extremes",
        [ Alcotest.test_case "beta extremes" `Quick test_classify_beta_extremes ] );
      ( "forecaster-retrain",
        [ Alcotest.test_case "retrains on drift" `Slow test_forecaster_retrains_on_drift ] );
    ]
