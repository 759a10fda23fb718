module Cluster = Lion_store.Cluster
module Engine = Lion_sim.Engine
module Heatgraph = Lion_analysis.Heatgraph
module Clump = Lion_analysis.Clump
module Costmodel = Lion_analysis.Costmodel
module Rearrange = Lion_analysis.Rearrange
module Schism = Lion_analysis.Schism
module Plan = Lion_analysis.Plan
module Predictor = Lion_predict.Predictor
module Txn = Lion_workload.Txn

let log_src = Logs.Src.create "lion.planner" ~doc:"Lion planner rounds"

module Log = (val Logs.src_log log_src : Logs.LOG)

type strategy = Rearrange | Schism_strategy

type config = {
  strategy : strategy;
  predict : bool;
  epsilon : float;
  cross_boost : float;
  alpha_factor : float;
  w_r : float;
  w_m : float;
  decay : float;
  use_lstm : bool;
  w_p : float;
}

let default_config =
  {
    strategy = Rearrange;
    predict = true;
    epsilon = 0.25;
    cross_boost = 4.0;
    alpha_factor = 2.0;
    w_r = 1.0;
    w_m = 10.0;
    decay = 0.5;
    use_lstm = true;
    w_p = 1.0;
  }

type t = {
  cl : Cluster.t;
  cfg : config;
  graph : Heatgraph.t;
  cost : Costmodel.t;
  predictor : Predictor.t option;
  mutable rounds : int;
  mutable last_plan_adds : int;
}

let create ?(seed = 23) cfg cl =
  (* WAN-aware costs (docs/GEO.md): only built under a region topology,
     so region-free planning evaluates the exact historical float
     expressions. The multiplier is the WAN/LAN latency ratio, clamped
     — enough to keep clumps region-local without making cross-region
     moves literally unthinkable. *)
  let wan =
    let c = cl.Cluster.cfg in
    Option.map
      (fun g ->
        {
          Costmodel.region_of = Cluster.region_of cl;
          factor =
            Float.min 64.0
              (Float.max 1.0
                 (g.Lion_store.Config.wan_latency
                 /. Float.max 1.0 c.Lion_store.Config.net_latency));
        })
      c.Lion_store.Config.geo
  in
  let cost =
    Costmodel.make ~w_r:cfg.w_r ~w_m:cfg.w_m ?wan
      ~freq:(Cluster.normalized_freq cl) ()
  in
  {
    cl;
    cfg;
    graph = Heatgraph.create ~partitions:(Cluster.partition_count cl);
    cost;
    predictor =
      (if cfg.predict && cfg.w_p > 0.0 then
         Some (Predictor.create ~seed ~use_lstm:cfg.use_lstm ~w_p:cfg.w_p ())
       else None);
    rounds = 0;
    last_plan_adds = 0;
  }

let cost_model t = t.cost

let observe t (txn : Txn.t) =
  Heatgraph.add_txn t.graph ~parts:txn.Txn.parts;
  Option.iter
    (fun p -> Predictor.observe p ~time:(Cluster.now t.cl) txn)
    t.predictor

let tick t =
  t.rounds <- t.rounds + 1;
  (* Merge predicted co-access (pre-replication hints, Fig. 5c). *)
  Option.iter
    (fun p ->
      List.iter
        (fun { Predictor.parts; weight } ->
          Heatgraph.add_predicted t.graph ~parts ~weight)
        (Predictor.analyze p ~time:(Cluster.now t.cl)))
    t.predictor;
  let placement = t.cl.Cluster.placement in
  let alpha = t.cfg.alpha_factor *. Heatgraph.mean_edge_weight t.graph in
  (* Cap clump growth at a fraction of the per-node fair share so the
     rearrangement algorithm — which moves whole clumps — can always
     balance a densely co-accessed hot set. *)
  let total_weight = ref 0.0 and hottest = ref 0.0 in
  for p = 0 to Cluster.partition_count t.cl - 1 do
    let w = Heatgraph.vertex_weight t.graph p in
    total_weight := !total_weight +. w;
    if w > !hottest then hottest := w
  done;
  (* Floor at 2.2× the hottest vertex so a co-accessed pair can always
     clump even when one partition dominates the heat. *)
  let max_weight =
    Stdlib.max
      (0.35 *. !total_weight /. float_of_int (Cluster.node_count t.cl))
      (2.2 *. !hottest)
  in
  let clumps =
    Clump.generate ~max_weight t.graph ~placement ~alpha
      ~cross_boost:t.cfg.cross_boost
  in
  let plan =
    match t.cfg.strategy with
    | Rearrange ->
        (* With elastic membership on, plans must not target standby,
           draining or dead slots. The filter is only passed when the
           knob is set, so default runs evaluate the exact same code
           path as before. *)
        let eligible =
          Option.map
            (fun _ -> Cluster.plan_target_ok t.cl)
            t.cl.Cluster.cfg.Lion_store.Config.elastic
        in
        let result =
          Rearrange.rearrange ?eligible t.cost placement clumps
            ~epsilon:t.cfg.epsilon ()
        in
        (* Eager promotion: the plan's w_r costs are paid as the adaptor
           applies it (Example 2), so the router — which follows
           primaries — sees the rebalanced layout immediately. *)
        Plan.of_assignments placement result.Rearrange.assignments
          ~eager_remaster:true
    | Schism_strategy ->
        let assignments = Schism.assign clumps ~nodes:(Cluster.node_count t.cl) in
        Schism.plan placement assignments
  in
  t.last_plan_adds <- plan.Plan.adds;
  Log.debug (fun m ->
      m "round %d: %d clumps, plan adds=%d remasters=%d wv=%.2f" t.rounds
        (List.length clumps) plan.Plan.adds plan.Plan.remasters
        (match t.predictor with Some p -> Predictor.last_wv p | None -> 0.0));
  Lion_protocols.Apply.apply t.cl plan;
  Heatgraph.clear t.graph;
  Cluster.decay_access t.cl t.cfg.decay

let rounds t = t.rounds
let last_plan_adds t = t.last_plan_adds
let last_wv t = match t.predictor with Some p -> Predictor.last_wv p | None -> 0.0
