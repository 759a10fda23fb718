(* The benchmark's workloads and one rep of each.

   A cell is driven only through public entry points: [Runner.run], with
   the benchmark wrapping the [gen] closure and the [submit]/[tick]/
   [drain] fields of the protocol [make] returns, and public accessors
   read from the cluster after the run. The sweep runs the built
   [lion compare] CLI as a child process. A rep returns the metrics it
   measured plus a fingerprint of its simulated results, which must be
   identical across the reps of one seed. *)

module Config = Lion_store.Config
module Cluster = Lion_store.Cluster
module Proto = Lion_protocols.Proto
module Runner = Lion_harness.Runner
module Planner = Lion_core.Planner
module Metrics = Lion_sim.Metrics
module Engine = Lion_sim.Engine
module Server = Lion_sim.Server

type cell = {
  cfg : Config.t;
  make : Cluster.t -> Proto.t * Planner.t option;
  gen : seed:int -> Config.t -> time:float -> Lion_workload.Txn.t;
  rc : Runner.config;
  audit_s : float;  (** simulated seconds of the calm audit *)
}

type sweep = {
  protocols : string list;
  workload_args : string list;
  warmup : float;
  duration : float;
}

type kind = Cell of cell | Sweep of sweep
type workload = { name : string; why : string; kind : kind }

let closed ~warmup ~duration clients =
  { Runner.quick with Runner.warmup; duration; clients; arrival = Runner.Closed }

let lion_planner (p, pl) = (p, Some pl)
let no_planner p = (p, None)

let workloads =
  [
    {
      name = "ycsb-lion";
      why =
        "Lion standard mode on skewed YCSB: submit (routing, planner observe) is 26% of wall \
         and ~700 remasters run per rep, so protocols/core/store changes show here";
      kind =
        Cell
          {
            cfg = Config.default;
            make = (fun cl -> lion_planner (Lion_core.Standard.create_with_planner ~name:"Lion" cl));
            gen =
              (fun ~seed cfg -> Lion_harness.Workloads.ycsb ~seed ~skew:0.8 ~cross:0.5 cfg);
            rc = closed ~warmup:2.0 ~duration:1.0 64;
            audit_s = 1.0;
          };
    };
    {
      name = "ycsb-2pc";
      why =
        "2PC on all-distributed uniform YCSB: 16 events and 9 messages per txn with no planner, \
         so engine/network changes show and core/analysis/predict changes must not";
      kind =
        Cell
          {
            cfg = Config.default;
            make = (fun cl -> no_planner (Lion_protocols.Twopc.create cl));
            gen =
              (fun ~seed cfg -> Lion_harness.Workloads.ycsb ~seed ~skew:0.0 ~cross:1.0 cfg);
            rc = closed ~warmup:1.0 ~duration:2.0 64;
            audit_s = 1.0;
          };
    };
    {
      name = "tpcc-lion-batch";
      why =
        "Lion batch mode on TPC-C NewOrder: the analytic epoch path at 2 events/txn bypasses \
         engine and network work; the TPC-C generator is 26% of wall";
      kind =
        Cell
          {
            cfg = Config.default;
            make = (fun cl -> lion_planner (Lion_core.Batch_mode.create_with_planner ~name:"Lion" cl));
            gen =
              (fun ~seed cfg -> Lion_harness.Workloads.tpcc ~seed ~skew:0.8 ~cross:0.5 cfg);
            rc = closed ~warmup:2.0 ~duration:3.0 Config.default.Config.batch_size;
            audit_s = 1.0;
          };
    };
    {
      name = "sweep-compare";
      why =
        "The lion compare CLI over 11 protocols as one child process: 8 protocols no other \
         workload runs, and the one place sweep-level parallelism would show";
      kind =
        Sweep
          {
            protocols =
              [ "2pc"; "leap"; "clay"; "unified"; "star"; "calvin"; "hermes"; "aria"; "lotus";
                "lion"; "lion-batch" ];
            workload_args = [ "-w"; "ycsb"; "--skew"; "0.8"; "--cross"; "0.5" ];
            warmup = 0.25;
            duration = 0.5;
          };
    };
  ]

let names = List.map (fun w -> w.name) workloads
let find name = List.find_opt (fun w -> w.name = name) workloads

type rep = {
  fingerprint : string;  (** simulated results; equal across reps of one seed *)
  values : (string * float) list;
}

let value rep name = List.assoc name rep.values

(* ---- cells --------------------------------------------------------- *)

let sum_servers f servers = Array.fold_left (fun acc s -> acc +. f s) 0.0 servers

(* Busy share of the pool over the whole run, and queue wait per job. *)
let pool_stats servers ~now =
  let cap = sum_servers (fun s -> float_of_int (Server.capacity s)) servers in
  let jobs = sum_servers (fun s -> float_of_int (Server.completed s)) servers in
  ( sum_servers Server.busy_time servers /. (cap *. now),
    sum_servers Server.queue_wait servers /. Float.max 1.0 jobs )

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Latency percentiles come from Metrics' reservoir of this many samples. *)
let reservoir = 8192.0
let mib words = words *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* Wraps the protocol's boundary calls. Untraced, only [tick] is
   wrapped, to sum the planner's per-round replica additions. *)
let instrument ?spans ~planner ~plan_adds (p : Proto.t) =
  let timed l ~txn f =
    match spans with
    | None -> f ()
    | Some sp ->
        let t0 = Spans.now_ns () and w0 = Gc.minor_words () in
        f ();
        Spans.record sp l ~txn ~t0 ~w0
  in
  let submit =
    match spans with
    | None -> p.Proto.submit
    | Some _ ->
        fun (txn : Lion_workload.Txn.t) ~on_done ->
          timed Spans.Submit ~txn:txn.id (fun () -> p.Proto.submit txn ~on_done)
  in
  let tick () =
    timed Spans.Tick ~txn:(-1) p.Proto.tick;
    match planner with
    | Some pl -> plan_adds := !plan_adds + Planner.last_plan_adds pl
    | None -> ()
  in
  { p with Proto.submit; tick; drain = (fun () -> timed Spans.Drain ~txn:(-1) p.Proto.drain) }

(* A cell's set-up is the work before its first transaction: generator
   construction, [Cluster.create] and protocol construction. One takes
   0.05-0.5 ms, so after the run it is repeated in [setup_groups] groups
   of at least [setup_group_ns] each, on a freshly collected heap, and
   the rep reports the median group's time per set-up. *)
let setup_groups = 7
let setup_group_ns = 20_000_000

let time_setup c ~seed =
  Gc.full_major ();
  let group _ =
    let t0 = Spans.now_ns () in
    let n = ref 0 in
    while !n = 0 || Spans.now_ns () - t0 < setup_group_ns do
      let gen = c.gen ~seed:(seed + 1) c.cfg in
      ignore (Sys.opaque_identity (gen, c.make (Cluster.create ~seed c.cfg)));
      incr n
    done;
    float_of_int (Spans.now_ns () - t0) /. 1e9 /. float_of_int !n
  in
  let a = Array.init setup_groups group in
  Array.sort Float.compare a;
  a.(setup_groups / 2)

let run_cell ?spans c ~seed =
  let stat0 = Gc.quick_stat () in
  let t_rep = Spans.now_ns () and w_rep = Gc.minor_words () in
  let gen = c.gen ~seed:(seed + 1) c.cfg in
  let gen_calls = ref 0 in
  let gen =
    match spans with
    | None ->
        fun ~time ->
          incr gen_calls;
          gen ~time
    | Some sp ->
        fun ~time ->
          incr gen_calls;
          let t0 = Spans.now_ns () and w0 = Gc.minor_words () in
          let txn = gen ~time in
          Spans.record sp Spans.Gen ~txn:txn.Lion_workload.Txn.id ~t0 ~w0;
          txn
  in
  let cluster = ref None and planner = ref None and plan_adds = ref 0 in
  let setup_end = ref 0 in
  let make cl =
    let p, pl = c.make cl in
    cluster := Some cl;
    planner := pl;
    setup_end := Spans.now_ns ();
    Option.iter (fun sp -> Spans.record sp Spans.Setup ~txn:(-1) ~t0:t_rep ~w0:w_rep) spans;
    instrument ?spans ~planner:pl ~plan_adds p
  in
  let t_run = Spans.now_ns () in
  let r = Runner.run ~seed ~cfg:c.cfg ~make ~gen c.rc in
  let t_end = Spans.now_ns () in
  let stat1 = Gc.quick_stat () in
  Option.iter (fun sp -> Spans.record sp Spans.Run ~txn:(-1) ~t0:t_rep ~w0:w_rep) spans;
  let cl = Option.get !cluster in
  let m = cl.Cluster.metrics in
  let secs ns = float_of_int ns /. 1e9 in
  let now = Engine.now cl.Cluster.engine in
  let txns = float_of_int !gen_calls in
  let commits = float_of_int r.Runner.commits in
  let events = float_of_int r.Runner.engine_events in
  let worker_util, worker_wait = pool_stats cl.Cluster.workers ~now in
  let messenger_util, messenger_wait = pool_stats cl.Cluster.services ~now in
  let minor = stat1.Gc.minor_words -. stat0.Gc.minor_words in
  let sim_s = secs (t_end - !setup_end) in
  let values =
    [
      ("txn_per_wall_s", txns /. sim_s);
      ("wall_s", secs (t_end - t_run));
      ("peak_heap_mb", mib (float_of_int stat1.Gc.top_heap_words));
      ("sim_tput_txn_s", r.Runner.throughput);
      ("sim_p50_ms", r.Runner.p50 /. 1000.0);
      ("sim_p99_ms", r.Runner.p99 /. 1000.0);
      ("distributed_share", 1.0 -. r.Runner.single_node_ratio);
      ("bytes_per_txn", r.Runner.bytes_per_txn);
      ("attempted", txns);
      ("failed", float_of_int (r.Runner.sheds + r.Runner.deadline_giveups + r.Runner.timeouts));
      ("sim.latency_samples", Float.min commits reservoir);
      ("protocols.commit_yield", ratio commits (commits +. float_of_int r.Runner.aborts));
      ( "core.planner_rounds",
        match !planner with Some pl -> float_of_int (Planner.rounds pl) | None -> 0.0 );
      ("core.plan_adds", float_of_int !plan_adds);
      ("store.remasters_per_ktxn", 1000.0 *. ratio (float_of_int r.Runner.remasters) txns);
      ("store.remastered_share", r.Runner.remaster_ratio);
      ("store.replica_adds", float_of_int r.Runner.replica_adds);
      ("store.resyncs", float_of_int cl.Cluster.resync_count);
      ("store.touched_keys", float_of_int (Lion_store.Kvstore.touched_keys cl.Cluster.store));
      ("store.placement_imbalance", Lion_store.Placement_stats.imbalance cl.Cluster.placement);
      ("sim.events_per_txn", events /. txns);
      ("sim.events_per_wall_s", events /. sim_s);
      ("sim.clamped_schedules", float_of_int (Metrics.schedule_clamps m));
      ("sim.msgs_per_txn", float_of_int (Lion_sim.Network.message_count cl.Cluster.network) /. txns);
      ("sim.worker_util", worker_util);
      ("sim.worker_wait_us_per_job", worker_wait);
      ("sim.messenger_util", messenger_util);
      ("sim.messenger_wait_us_per_job", messenger_wait);
    ]
    @ List.map
        (fun (p, f) -> ("sim.phase." ^ Metrics.phase_name p, f))
        r.Runner.phase_fractions
    @ [
        ("sim.retries", float_of_int r.Runner.retries);
        ("sim.timeouts", float_of_int r.Runner.timeouts);
        ("gc.minor_words_per_txn", minor /. txns);
        ("gc.minor_words_per_event", minor /. events);
        ("gc.promoted_words_per_txn", (stat1.Gc.promoted_words -. stat0.Gc.promoted_words) /. txns);
        ("gc.major_collections", float_of_int (stat1.Gc.major_collections - stat0.Gc.major_collections));
      ]
  in
  let _, rows = Lion_harness.Export.result_rows [ ("cell", r) ] in
  let simulated (k, v) =
    if k = "attempted" || List.exists (fun (m : Catalog.metric) -> m.name = k && m.source = Catalog.Sim) Catalog.all
    then Some (Printf.sprintf ";%s=%.17g" k v)
    else None
  in
  let fingerprint = String.concat "," (List.concat rows) ^ String.concat "" (List.filter_map simulated values) in
  { fingerprint; values = ("setup_s", time_setup c ~seed) :: values }

(* Calm audit: the cell's protocol and workload under a quiescent
   [Drive.run] — serializable history, no replica divergence, liveness
   clean. [wrap] lets a test inject a broken protocol wrapper. *)
let audit ?(wrap = Fun.id) c ~seed =
  let o =
    Lion_audit.Drive.run ~seed ~clients:c.rc.Runner.clients ~duration:c.audit_s ~cfg:c.cfg
      ~make:(fun cl -> wrap (fst (c.make cl)))
      ~gen:(c.gen ~seed:(seed + 1) c.cfg)
      ~nemesis:Lion_audit.Nemesis.calm ()
  in
  (Lion_audit.Drive.healthy o, Format.asprintf "%a" Lion_audit.Drive.pp_outcome o)

(* ---- the sweep ----------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Runs [exe args] to completion with stdout discarded, returning its
   exit status, wall seconds and stderr. *)
let spawn ~env exe args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Spans.now_ns () in
  let pid = Unix.create_process_env exe (Array.of_list (exe :: args)) env null null wr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let err = In_channel.input_all ic in
  let _, status = Unix.waitpid [] pid in
  let wall = float_of_int (Spans.now_ns () - t0) /. 1e9 in
  close_in ic;
  Unix.close null;
  (status, wall, err)

(* OCAMLRUNPARAM=v=0x400 makes the child print its GC totals at exit. *)
let gc_env () =
  Array.append
    (Array.of_list
       (List.filter
          (fun s -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" s))
          (Array.to_list (Unix.environment ()))))
    [| "OCAMLRUNPARAM=v=0x400" |]

let gc_stat err key =
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ k; v ] when String.trim k = key -> float_of_string_opt (String.trim v)
      | _ -> None)
    (String.split_on_char '\n' err)
  |> Option.value ~default:0.0

let compare_args s ~seed ~warmup ~duration ~csv =
  ("compare" :: s.protocols)
  @ s.workload_args
  @ [ "--warmup"; Printf.sprintf "%g" warmup; "--duration"; Printf.sprintf "%g" duration;
      "--seed"; string_of_int seed; "--csv"; csv ]

exception Sweep_failed of string

let csv_rows text =
  match List.filter (( <> ) "") (String.split_on_char '\n' text) with
  | [] -> raise (Sweep_failed "empty CSV")
  | header :: rows ->
      let cols = String.split_on_char ',' header in
      List.map
        (fun row ->
          let cells = String.split_on_char ',' row in
          if List.length cells <> List.length cols then raise (Sweep_failed "ragged CSV row");
          List.combine cols cells)
        rows

let num row col =
  match Option.bind (List.assoc_opt col row) float_of_string_opt with
  | Some f -> f
  | None -> raise (Sweep_failed (Printf.sprintf "CSV column %s missing or not a number" col))

(* A sweep rep: one zero-duration child (the sweep's set-up — process
   start and 11 cluster constructions) and one full child. *)
let run_sweep s ~cli ~seed ~out_dir =
  let csv = Filename.concat out_dir "sweep.csv" in
  let run ~warmup ~duration =
    let status, wall, err =
      spawn ~env:(gc_env ()) cli (compare_args s ~seed ~warmup ~duration ~csv)
    in
    if status <> Unix.WEXITED 0 then raise (Sweep_failed ("lion compare failed: " ^ err));
    (wall, err)
  in
  let setup_s, _ = run ~warmup:0.0 ~duration:0.0 in
  let wall_s, err = run ~warmup:s.warmup ~duration:s.duration in
  let text = read_file csv in
  let rows = csv_rows text in
  let bad = List.filter (fun r -> num r "commits" <= 0.0) rows in
  if List.length rows <> List.length s.protocols || bad <> [] then
    raise
      (Sweep_failed
         (Printf.sprintf "sweep CSV has %d rows (want %d), %d with no commits" (List.length rows)
            (List.length s.protocols) (List.length bad)));
  let total col = List.fold_left (fun acc r -> acc +. num r col) 0.0 rows in
  let weighted col = List.fold_left (fun acc r -> acc +. (num r col *. num r "commits")) 0.0 rows in
  let geomean col =
    exp (List.fold_left (fun acc r -> acc +. log (num r col)) 0.0 rows /. float_of_int (List.length rows))
  in
  let commits = total "commits" in
  let minor = gc_stat err "minor_words" in
  let values =
    [
      ("setup_s", setup_s);
      ("txn_per_wall_s", commits /. wall_s);
      ("wall_s", wall_s);
      ("peak_heap_mb", mib (gc_stat err "top_heap_words"));
      ("sim_tput_txn_s", geomean "throughput_txn_s");
      ("sim_p50_ms", geomean "p50_us" /. 1000.0);
      ("sim_p99_ms", geomean "p99_us" /. 1000.0);
      ("distributed_share", 1.0 -. ratio (weighted "single_node_ratio") commits);
      ("bytes_per_txn", ratio (weighted "bytes_per_txn") commits);
      ("attempted", commits +. total "sheds" +. total "deadline_giveups");
      ("failed", total "sheds" +. total "deadline_giveups" +. total "timeouts");
      ("sim.latency_samples", List.fold_left (fun acc r -> acc +. Float.min reservoir (num r "commits")) 0.0 rows);
      ("protocols.commit_yield", ratio commits (commits +. total "aborts"));
      ("store.remasters_per_ktxn", 1000.0 *. ratio (total "remasters") commits);
      ("store.remastered_share", ratio (weighted "remaster_ratio") commits);
      ("store.replica_adds", total "replica_adds");
    ]
    @ List.map
        (fun p ->
          let n = Metrics.phase_name p in
          ("sim.phase." ^ n, ratio (weighted ("frac_" ^ n)) commits))
        Metrics.all_phases
    @ [
        ("sim.retries", total "retries");
        ("sim.timeouts", total "timeouts");
        ("gc.minor_words_per_txn", ratio minor commits);
        ("gc.promoted_words_per_txn", ratio (gc_stat err "promoted_words") commits);
        ("gc.major_collections", gc_stat err "major_collections");
      ]
  in
  { fingerprint = text; values }
