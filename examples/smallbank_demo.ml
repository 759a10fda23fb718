(* SmallBank demo: recurring two-account payments are cross-partition
   under the initial layout; Lion's planner co-locates the partition
   pairs. Placement_stats quantifies the placement before and after —
   coverage (a single node holds replicas of every partition a
   transaction touches) and colocation (primaries already share a
   node).

   Run with: dune exec examples/smallbank_demo.exe *)

module Config = Lion_store.Config
module Cluster = Lion_store.Cluster
module Stats = Lion_store.Placement_stats
module Smallbank = Lion_workload.Smallbank
module Engine = Lion_sim.Engine
module Proto = Lion_protocols.Proto
module Txn = Lion_workload.Txn
module Table = Lion_kernel.Table

let () =
  let cfg = Config.default in
  let params =
    {
      (Smallbank.default_params ~partitions:(Config.total_partitions cfg)
         ~nodes:cfg.Config.nodes)
      with
      Smallbank.two_account_ratio = 0.5;
    }
  in
  let gen = Smallbank.create ~seed:3 params in
  (* The recurring two-account partition pairs (p, p+1). *)
  let pairs =
    List.init (Config.total_partitions cfg) (fun p ->
        [ p; (p + 1) mod Config.total_partitions cfg ])
  in
  let cl = Cluster.create ~seed:1 cfg in
  let proto = Lion_core.Standard.create ~name:"Lion" cl in
  let report label =
    Printf.printf "%-18s coverage %.0f%%  colocated %.0f%%  imbalance %.2f\n" label
      (100.0 *. Stats.coverage cl.Cluster.placement pairs)
      (100.0 *. Stats.colocated cl.Cluster.placement pairs)
      (Stats.imbalance cl.Cluster.placement)
  in
  Printf.printf "SmallBank: 50%% two-account transactions (SendPayment/Amalgamate)\n\n";
  report "before planning:";
  let engine = cl.Cluster.engine in
  let rec loop () =
    proto.Proto.submit (Smallbank.next gen) ~on_done:(fun () ->
        Engine.schedule engine ~delay:0.0 loop)
  in
  for _ = 1 to 64 do
    loop ()
  done;
  let rec tick () =
    Engine.schedule engine ~delay:(Engine.seconds 1.0) (fun () ->
        proto.Proto.tick ();
        tick ())
  in
  tick ();
  Engine.run_until engine (Engine.seconds 8.0);
  report "after 8s of Lion:";
  let m = cl.Cluster.metrics in
  Printf.printf "\ncommits: %d, single-node %.0f%%, remasters %d, replica adds %d\n"
    (Lion_sim.Metrics.count m Commits)
    (100.0
    *. float_of_int (Lion_sim.Metrics.count m Single_node_commits)
    /. float_of_int (max 1 (Lion_sim.Metrics.count m Commits)))
    cl.Cluster.remaster_count cl.Cluster.replica_add_count
