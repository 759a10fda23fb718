module Cluster = Lion_store.Cluster
module Placement = Lion_store.Placement
module Heatgraph = Lion_analysis.Heatgraph
module Clump = Lion_analysis.Clump
module Plan = Lion_analysis.Plan
module Txn = Lion_workload.Txn

(* The monitor triggers when max_load > avg·(1 + imbalance_threshold). *)
let imbalance_threshold = 0.25

let create cl =
  let parts = Cluster.partition_count cl in
  let graph = Heatgraph.create ~partitions:parts in
  let rebalance () =
    let nodes = Cluster.node_count cl in
    (* Clay's monitor counts transactions per node, not worker time —
       the paper's critique: a node saturated by single-node
       transactions "has a similar load" to nodes running fewer but
       more expensive distributed transactions, so some imbalances are
       never detected. *)
    let loads =
      Array.init nodes (fun n ->
          float_of_int (Lion_sim.Server.completed cl.Cluster.workers.(n)))
    in
    let total = Array.fold_left ( +. ) 0.0 loads in
    let avg = total /. float_of_int nodes in
    if avg > 0.0 then (
      let hottest = ref 0 and coldest = ref 0 in
      Array.iteri
        (fun n l ->
          if l > loads.(!hottest) then hottest := n;
          if l < loads.(!coldest) then coldest := n)
        loads;
      if loads.(!hottest) > avg *. (1.0 +. imbalance_threshold) then (
        (* Move clumps off the hot node, hottest clump first, until the
           projected excess is gone. Clump growth is thresholded and
           capped exactly like the planner's, otherwise a dense hot set
           collapses into one unmovable clump. *)
        let parts_n = Cluster.partition_count cl in
        let total_weight = ref 0.0 and hottest_v = ref 0.0 in
        for p = 0 to parts_n - 1 do
          let w = Heatgraph.vertex_weight graph p in
          total_weight := !total_weight +. w;
          if w > !hottest_v then hottest_v := w
        done;
        let max_weight =
          Stdlib.max
            (0.35 *. !total_weight /. float_of_int nodes)
            (2.2 *. !hottest_v)
        in
        let clumps =
          Clump.generate ~max_weight graph ~placement:cl.Cluster.placement
            ~alpha:(2.0 *. Heatgraph.mean_edge_weight graph)
            ~cross_boost:1.0
          |> List.filter (fun (c : Clump.t) ->
                 2
                 * Placement.count_primaries_at cl.Cluster.placement c.pids
                     ~node:!hottest
                 >= List.length c.pids)
          |> List.sort (fun (a : Clump.t) b -> compare b.w a.w)
        in
        let excess_fraction =
          (loads.(!hottest) -. avg) /. Stdlib.max 1.0 loads.(!hottest)
        in
        let total_weight = Clump.total_weight clumps in
        let budget = ref (excess_fraction *. total_weight) in
        let moved =
          List.filter
            (fun (c : Clump.t) ->
              if !budget > 0.0 then (
                budget := !budget -. c.w;
                c.dest <- !coldest;
                true)
              else false)
            clumps
        in
        let assignments = List.map (fun (c : Clump.t) -> (c, c.dest)) moved in
        let plan =
          Plan.of_assignments cl.Cluster.placement assignments ~eager_remaster:true
        in
        Apply.apply cl plan));
    Heatgraph.clear graph;
    Cluster.reset_load_counters cl
  in
  let route = Exec.route_most_primaries cl in
  Proto.make ~name:"Clay"
    ~submit:(fun txn ~on_done ->
      Heatgraph.add_txn graph ~parts:txn.Txn.parts;
      Exec.run cl ~route ~flavor:Exec.plain_2pc txn ~on_done)
    ~tick:rebalance ()
