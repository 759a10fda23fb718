(* Bechamel microbenchmarks of the core building blocks (heat-graph
   construction, clump generation, the cost model, Algorithm 1, LSTM
   inference/training, the event engine), reporting ns/op. OCC sessions
   are [lion perf]'s [store_versions] scenario. The paper's experiments
   run under [lion experiment]; `make bench` runs both. *)

open Bechamel
open Toolkit
module Heatgraph = Lion_analysis.Heatgraph
module Clump = Lion_analysis.Clump
module Costmodel = Lion_analysis.Costmodel
module Rearrange = Lion_analysis.Rearrange
module Placement = Lion_store.Placement
module Lstm = Lion_nn.Lstm
module Rng = Lion_kernel.Rng
module Zipf = Lion_kernel.Zipf
module Engine = Lion_sim.Engine
module Ycsb = Lion_workload.Ycsb
module Txn = Lion_workload.Txn

let micro_tests () =
  let placement = Placement.create ~nodes:4 ~partitions:48 ~replicas:2 ~max_replicas:4 () in
  let gen =
    Ycsb.create
      { (Ycsb.default_params ~partitions:48 ~nodes:4) with Ycsb.cross_ratio = 0.5 }
  in
  let txns = Array.init 2000 (fun _ -> Ycsb.next gen) in
  let full_graph =
    let g = Heatgraph.create ~partitions:48 in
    Array.iter (fun t -> Heatgraph.add_txn g ~parts:t.Txn.parts) txns;
    g
  in
  let cost = Costmodel.make ~freq:(fun _ -> 0.5) () in
  let clumps () =
    Clump.generate full_graph ~placement
      ~alpha:(2.0 *. Heatgraph.mean_edge_weight full_graph)
      ~cross_boost:4.0
  in
  let ready_clumps = clumps () in
  let lstm = Lstm.create ~input:1 () in
  let seq = Array.init 10 (fun i -> [| sin (float_of_int i) |]) in
  let zipf = Zipf.create ~n:1_000_000 ~theta:0.8 in
  let zipf_rng = Rng.create 77 in
  [
    Test.make ~name:"ycsb_generate_txn" (Staged.stage (fun () -> ignore (Ycsb.next gen)));
    Test.make ~name:"zipf_sample" (Staged.stage (fun () -> ignore (Zipf.sample zipf zipf_rng)));
    Test.make ~name:"heatgraph_add_2000_txns"
      (Staged.stage (fun () ->
           let g = Heatgraph.create ~partitions:48 in
           Array.iter (fun t -> Heatgraph.add_txn g ~parts:t.Txn.parts) txns));
    Test.make ~name:"clump_generate" (Staged.stage (fun () -> ignore (clumps ())));
    Test.make ~name:"cost_model_find_dst"
      (Staged.stage (fun () ->
           ignore (Costmodel.find_dst_node cost placement ~parts:[ 0; 1; 2 ])));
    Test.make ~name:"rearrange_algorithm"
      (Staged.stage (fun () ->
           List.iter (fun (c : Clump.t) -> c.Clump.dest <- -1) ready_clumps;
           ignore (Rearrange.rearrange cost placement ready_clumps ())));
    Test.make ~name:"lstm_forward_10steps"
      (Staged.stage (fun () -> ignore (Lstm.predict lstm seq)));
    Test.make ~name:"lstm_train_sample"
      (Staged.stage (fun () -> ignore (Lstm.train_sample lstm ~seq ~target:0.5 ~lr:0.001)));
    Test.make ~name:"engine_event_cycle"
      (Staged.stage
         (let e = Engine.create () in
          fun () ->
            Engine.schedule e ~delay:1.0 (fun () -> ());
            Engine.run_all e ()));
  ]

let run_micro () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 256) () in
  let tests = micro_tests () in
  Printf.printf ">>> microbenchmarks (bechamel, monotonic clock)\n%!";
  let table =
    Lion_kernel.Table.create ~title:"Core-operation microbenchmarks"
      ~columns:[ "operation"; "ns/op" ]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Lion_kernel.Table.add_row table
                [ name; Lion_kernel.Table.cell_float ~decimals:0 est ]
          | _ -> Lion_kernel.Table.add_row table [ name; "n/a" ])
        analysis)
    tests;
  Lion_kernel.Table.print table

let () = run_micro ()
