module Config = Lion_store.Config
module Cluster = Lion_store.Cluster
module Kvstore = Lion_store.Kvstore
module Metrics = Lion_sim.Metrics
module Engine = Lion_sim.Engine
module Fault = Lion_sim.Fault
module Table = Lion_kernel.Table
module Rng = Lion_kernel.Rng
module Txn = Lion_workload.Txn
module Planner = Lion_core.Planner

(* Geo experiments run on the GEO preset with a WAN latency two to
   three orders of magnitude above the LAN: the regime where one
   cross-region round trip dominates a transaction's budget. *)
let geo_config ?(regions = 2) () =
  { Config.default with Config.geo = Some { Config.default_geo with regions } }

(* Partition → region through the seed placement (primary of partition
   p is node [p mod nodes]); the generator needs a static notion of
   "where a partition lives" that does not chase remastering. *)
let partitions_by_region cfg =
  let nreg = match cfg.Config.geo with Some g -> g.Config.regions | None -> 1 in
  let by = Array.make nreg [] in
  for p = Config.total_partitions cfg - 1 downto 0 do
    let r = Config.region_of_node cfg (p mod cfg.Config.nodes) in
    by.(r) <- p :: by.(r)
  done;
  Array.map Array.of_list by

(* Two-partition read-write transactions with a region-local home:
   [cross] is the probability that the second partition is homed in a
   different region. At 0.0 every transaction is region-local (Lion can
   clump it single-node); at 1.0 every transaction spans the WAN. *)
let gen ?(seed = 7) ?(cross = 0.0) cfg =
  let rng = Rng.create seed in
  let by = partitions_by_region cfg in
  let nreg = Array.length by in
  let next_id = ref 0 in
  let key p = Kvstore.key ~part:p ~slot:(Rng.int rng 64) in
  fun ~time:_ ->
    incr next_id;
    let home = Rng.int rng nreg in
    let p1 = Rng.choose rng by.(home) in
    let p2 =
      if nreg >= 2 && Rng.bernoulli rng cross then
        Rng.choose rng by.((home + 1 + Rng.int rng (nreg - 1)) mod nreg)
      else Rng.choose rng by.(home)
    in
    (* Slots are drawn from the last operation to the first; the order
       is part of the seeded stream. *)
    let w2 = key p2 in
    let r2 = key p2 in
    let w1 = key p1 in
    let r1 = key p1 in
    Txn.make ~id:!next_id [| Txn.read r1; Txn.write w1; Txn.read r2; Txn.write w2 |]

(* The crossover's four protocols; Lion runs without prediction. *)
let lineup =
  Protocols.lineup
    ~config:{ Planner.default_config with Planner.predict = false; use_lstm = false }
    [ "lion"; "star"; "2pc"; "epoch" ]

type cell = {
  ratio : float;
  throughput : float;
  goodput : float;
  wan_mb : float;
  wan_msgs : int;
}

let ratios = [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

let run_one ?(seed = 7) ?trace ~scale ~batch ~cfg ~make ~cross () =
  let rc =
    { Runner.quick with Runner.warmup = 2.0 *. scale; duration = 4.0 *. scale }
  in
  let captured = ref None in
  let r =
    Runner.run ~seed ?trace ~batch ~cfg ~make
      ~setup:(fun cl -> captured := Some cl)
      ~gen:(gen ~seed ~cross cfg)
      rc
  in
  let wan_bytes, wan_msgs =
    match !captured with
    | Some cl ->
        (Metrics.wan_bytes cl.Cluster.metrics, Metrics.wan_messages cl.Cluster.metrics)
    | None -> (0, 0)
  in
  {
    ratio = cross;
    throughput = r.Runner.throughput;
    goodput = r.Runner.goodput;
    wan_mb = float_of_int wan_bytes /. 1.0e6;
    wan_msgs;
  }

let sweep ?(seed = 7) ?(scale = 1.0) ?(regions = 2) ?trace () =
  let cfg = geo_config ~regions () in
  List.map
    (fun (name, batch, make) ->
      ( name,
        List.map (fun cross -> run_one ~seed ?trace ~scale ~batch ~cfg ~make ~cross ()) ratios ))
    lineup

let fmt_k v = Table.cell_float ~decimals:1 (v /. 1000.0)

let print_sweep ~regions rows =
  let cols =
    "protocol"
    :: List.map (fun r -> Printf.sprintf "%d%%" (int_of_float (100.0 *. r))) ratios
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Geo sweep: %d regions, cross-region ratio vs throughput (k txn/s)" regions)
      ~columns:cols
  in
  List.iter (fun (name, cells) -> Table.add_row t (name :: List.map (fun c -> fmt_k c.throughput) cells)) rows;
  Table.print t;
  let t2 =
    Table.create
      ~title:
        (Printf.sprintf "Geo sweep: %d regions, cross-region ratio vs WAN traffic (MB)"
           regions)
      ~columns:cols
  in
  List.iter
    (fun (name, cells) ->
      Table.add_row t2 (name :: List.map (fun c -> Table.cell_float ~decimals:1 c.wan_mb) cells))
    rows;
  Table.print t2

(* The headline claim of docs/GEO.md: Lion's adaptive replication wins
   while transactions stay region-local, epoch-based OCC wins once most
   of them cross the WAN. *)
let crossover_ok rows =
  match (List.assoc_opt "Lion" rows, List.assoc_opt "EpochOCC" rows) with
  | Some lion, Some epoch ->
      let at l r = (List.find (fun c -> c.ratio = r) l).throughput in
      at lion 0.0 >= at epoch 0.0 && at epoch 1.0 >= at lion 1.0
  | _ -> false

(* ------------------------------------------------------------------ *)

let region_nodes cfg r =
  List.filter
    (fun n -> Config.region_of_node cfg n = r)
    (List.init cfg.Config.nodes Fun.id)

(* Goodput while the WAN is down: split the two regions for a window
   mid-run. min_regions=2 keeps a replica of everything on both sides,
   so intra-region transactions should keep committing throughout. *)
let wan_partition ?(seed = 7) ?(scale = 1.0) ?trace () =
  let at = 4.0 *. scale and duration = 4.0 *. scale in
  let total = 12.0 *. scale in
  let base = geo_config () in
  let plan =
    Fault.split_brain
      ~groups:[ region_nodes base 0; region_nodes base 1 ]
      ~at:(Engine.seconds at)
      ~duration:(Engine.seconds duration)
  in
  let cfg = { base with Config.fault_plan = plan } in
  List.map
    (fun (name, batch, make) ->
      let r =
        Runner.run ~seed ?trace ~batch ~cfg ~make
          ~gen:(gen ~seed ~cross:0.1 cfg)
          { Runner.quick with Runner.warmup = 0.0; duration = total; tick_every = 1.0 }
      in
      (name, r))
    lineup

(* Mean of a per-second series over [from_s, until_s). No node dies in
   a pure link partition, so the availability-based goodput_under_fault
   stays at "never degraded" — the damage shows only in the series. *)
let series_mean series ~from_s ~until_s =
  let lo = int_of_float from_s and hi = int_of_float until_s in
  let hi = Stdlib.min hi (Array.length series) in
  if hi <= lo then 0.0
  else (
    let sum = ref 0.0 in
    for i = lo to hi - 1 do
      sum := !sum +. series.(i)
    done;
    !sum /. float_of_int (hi - lo))

let print_partition ?(scale = 1.0) results =
  let at = 4.0 *. scale and duration = 4.0 *. scale in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Geo: WAN partition region0|region1 from %.1fs to %.1fs (10%% cross)" at
           (at +. duration))
      ~columns:
        [ "protocol"; "k txn/s"; "k txn/s in partition"; "k txn/s after"; "timeouts"; "aborts" ]
  in
  List.iter
    (fun (name, (r : Runner.result)) ->
      let series = r.Runner.goodput_series in
      Table.add_row t
        [
          name;
          fmt_k r.Runner.throughput;
          fmt_k (series_mean series ~from_s:at ~until_s:(at +. duration));
          fmt_k
            (series_mean series ~from_s:(at +. duration)
               ~until_s:(float_of_int (Array.length series)));
          string_of_int r.Runner.timeouts;
          string_of_int r.Runner.aborts;
        ])
    results;
  Table.print t
