module Config = Lion_store.Config
module Kvstore = Lion_store.Kvstore
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

let names = List.map (fun (name, _, _) -> name) lineup
let ratios = [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

let sweep ?(seed = 7) ?(scale = 1.0) ?(regions = 2) ?trace () =
  let cfg = geo_config ~regions () in
  let rc = { Runner.quick with Runner.warmup = 2.0 *. scale; duration = 4.0 *. scale } in
  List.combine names
    (Runner.run_grid ?trace
       (fun (_, batch, make) cross ->
         Runner.cell ~seed ~batch ~cfg ~make ~gen:(fun () -> gen ~seed ~cross cfg) rc)
       lineup ratios)

let print_sweep ~regions rows =
  let table what f =
    Table.grid
      ~title:(Printf.sprintf "Geo sweep: %d regions, cross-region ratio vs %s" regions what)
      "protocol"
      (List.map (fun r -> Printf.sprintf "%d%%" (int_of_float (100.0 *. r))) ratios)
      f rows
  in
  table "throughput (k txn/s)" (fun r -> Runner.fmt_k r.Runner.throughput);
  table "WAN traffic (MB)" (fun r ->
      Table.cell_float ~decimals:1 (float_of_int (Runner.count r Wan_bytes) /. 1.0e6))

(* The headline claim of docs/GEO.md: Lion's adaptive replication wins
   while transactions stay region-local, epoch-based OCC wins once most
   of them cross the WAN. *)
let crossover_ok rows =
  match (List.assoc_opt "Lion" rows, List.assoc_opt "EpochOCC" rows) with
  | Some lion, Some epoch ->
      let at l r = (List.assoc r (List.combine ratios l)).Runner.throughput in
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
  let base = geo_config () in
  let plan =
    Fault.split_brain
      ~groups:[ region_nodes base 0; region_nodes base 1 ]
      ~at:(Engine.seconds at) ~duration:(Engine.seconds duration)
  in
  let cfg = { base with Config.fault_plan = plan } in
  let cells =
    List.map
      (fun (_, batch, make) ->
        Runner.cell ~seed ~batch ~cfg ~make
          ~gen:(fun () -> gen ~seed ~cross:0.1 cfg)
          { Runner.quick with Runner.warmup = 0.0; duration = 12.0 *. scale })
      lineup
  in
  ((at, at +. duration), List.combine names (Runner.run_cells ?trace cells))

(* No node dies in a pure link partition, so the availability-based
   goodput_under_fault stays at "never degraded": the damage shows
   only in the goodput series. *)
let print_partition ((at, until), results) =
  let mean from_ until (r : Runner.result) =
    Runner.fmt_k (Lion_kernel.Stats.mean_range r.goodput_series ~from_ ~until)
  in
  Table.by_row
    ~title:
      (Printf.sprintf "Geo: WAN partition region0|region1 from %.1fs to %.1fs (10%% cross)" at
         until)
    "protocol"
    [
      Runner.k_txn ();
      ("k txn/s in partition", mean (int_of_float at) (int_of_float until));
      ("k txn/s after", mean (int_of_float until) max_int);
      Runner.timeouts;
      Runner.aborts;
    ]
    results
