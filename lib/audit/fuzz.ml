module Cluster = Lion_store.Cluster
module Config = Lion_store.Config
module Engine = Lion_sim.Engine
module Fault = Lion_sim.Fault
module Metrics = Lion_sim.Metrics
module Rng = Lion_kernel.Rng
module Proto = Lion_protocols.Proto
module Txn = Lion_workload.Txn

type op =
  | Crash of { node : int; at_us : int; downtime_us : int }
  | Isolate of { node : int; at_us : int; dur_us : int }
  | Straggle of { node : int; factor : int; at_us : int; dur_us : int }
  | Slow_link of { dst : int; extra_us : int; at_us : int; dur_us : int }
  | Lossy of { pct : int; at_us : int; dur_us : int }
  | Burst of { node : int; at_us : int; dur_us : int }
  | Join of { node : int; at_us : int }
  | Decommission of { node : int; at_us : int }
  | Crash_rejoin of { node : int; at_us : int; cycles : int }

type case = {
  name : string;
  seed : int;
  proto : string;
  seconds : int;
  clients : int;
  phantom : bool;
  overload : bool;
  skew_pct : int;
  cross_pct : int;
  ops : op list;
}

type verdict = Clean | Safety | Liveness

let verdict_name = function
  | Clean -> "clean"
  | Safety -> "safety"
  | Liveness -> "liveness"

type result = {
  case : case;
  verdict : verdict;
  signature : string list;
  outcome : Drive.outcome;
}

type target = {
  protos : (string * (Cluster.t -> Proto.t)) list;
  workload :
    cfg:Config.t ->
    seed:int ->
    skew:float ->
    cross:float ->
    time:float ->
    Txn.t;
}

(* {2 Case -> configuration / fault plan / membership actions} *)

(* Elastic defaults always: standby slots give join/decommission ops
   something to act on, and session tagging keeps the known (and
   documented) untagged crash-rejoin hazard from drowning the fuzzer
   in expected Stale_replica findings. The overload knobs come without
   the transaction deadline — a deadline converts every wedge into a
   tidy give-up, and the liveness audit exists to see wedges. *)
let cfg_of_case c =
  let cfg = Config.with_elastic_defaults Config.default in
  if c.overload then { (Config.with_overload_defaults cfg) with Config.deadline = None }
  else cfg

let us = float_of_int

let plan_of_case c =
  let slots = Config.total_slots (cfg_of_case c) in
  List.concat_map
    (fun op ->
      match op with
      | Crash { node; at_us; downtime_us } ->
          [
            Fault.crash ~node ~at:(us at_us)
              ~recover_at:(us (at_us + downtime_us))
              ();
          ]
      | Isolate { node; at_us; dur_us } ->
          let others =
            List.filter (fun n -> n <> node) (List.init slots Fun.id)
          in
          [
            Fault.partition
              ~groups:[ [ node ]; others ]
              ~from_:(us at_us)
              ~until:(us (at_us + dur_us));
          ]
      | Straggle { node; factor; at_us; dur_us } ->
          [
            Fault.straggler ~node ~factor:(float_of_int factor)
              ~from_:(us at_us)
              ~until:(us (at_us + dur_us));
          ]
      | Slow_link { dst; extra_us; at_us; dur_us } ->
          [
            Fault.delay ~dst ~extra:(us extra_us) ~from_:(us at_us)
              ~until:(us (at_us + dur_us))
              ();
          ]
      | Lossy { pct; at_us; dur_us } ->
          [
            Fault.drop
              ~prob:(float_of_int pct /. 100.0)
              ~from_:(us at_us)
              ~until:(us (at_us + dur_us))
              ();
          ]
      | Burst { node; at_us; dur_us } ->
          (* The overload-burst recipe (docs/OVERLOAD.md): straggler
             overlaid with message loss in the same window. *)
          [
            Fault.straggler ~node ~factor:6.0 ~from_:(us at_us)
              ~until:(us (at_us + dur_us));
            Fault.drop ~prob:0.15 ~from_:(us at_us)
              ~until:(us (at_us + dur_us))
              ();
          ]
      | Crash_rejoin { node; at_us; cycles } ->
          (* The crash-rejoin recipe ({!Nemesis.crash_rejoin}): delay
             deliveries into the node just before each crash so
             in-flight streams land after the rejoin. *)
          let hold = 50_000 and downtime = 120_000 and period = 1_000_000 in
          let extra = us (downtime + hold + 30_000) in
          List.concat
            (List.init (Stdlib.max 1 cycles) (fun k ->
                 let t0 = at_us + (k * period) in
                 Fault.delay ~dst:node ~extra ~from_:(us t0)
                   ~until:(us (t0 + hold))
                   ()
                 :: Fault.crash_recover ~node ~at:(us (t0 + hold))
                      ~downtime:(us downtime)))
      | Join _ | Decommission _ -> [])
    c.ops

let actions_of_case c =
  List.filter_map
    (function
      | Join { node; at_us } ->
          Some (us at_us, fun cl -> ignore (Cluster.join_node cl node))
      | Decommission { node; at_us } ->
          Some (us at_us, fun cl -> ignore (Cluster.decommission_node cl node))
      | _ -> None)
    c.ops

(* {2 Coverage signal} *)

(* Every counter that declares a signal and counted something. *)
let coverage_of (o : Drive.outcome) =
  List.filter_map
    (fun c -> if Lion_harness.Runner.count o.result c > 0 then Metrics.signal c else None)
    Metrics.all

let divergence_class = function
  | Divergence.Replica_behind _ -> "replica-behind"
  | Divergence.Stale_replica _ -> "stale-replica"
  | Divergence.Lost_write _ -> "lost-write"

let signature_of (o : Drive.outcome) =
  let anoms =
    List.map (fun a -> "a:" ^ Checker.anomaly_name a) o.check.Checker.anomalies
  in
  let divs =
    List.map
      (fun f -> "d:" ^ divergence_class f)
      o.divergence.Divergence.findings
  in
  let lives =
    List.map
      (fun f -> "l:" ^ Liveness.finding_name f)
      o.liveness.Liveness.findings
  in
  List.sort_uniq compare (coverage_of o @ anoms @ divs @ lives)

(* {2 Running one case} *)

let run_case ?(max_events = 2_000_000) ~target c =
  let make =
    match List.assoc_opt c.proto target.protos with
    | Some m -> m
    | None -> invalid_arg ("Fuzz.run_case: unknown protocol " ^ c.proto)
  in
  (* [Drive.run] builds the protocol right after the cluster, before
     the first event: the place to re-plant the bug. *)
  let make cl =
    cl.Cluster.reintroduce_phantom_secondary <- c.phantom;
    make cl
  in
  let cfg = cfg_of_case c in
  let cfg = { cfg with Config.fault_plan = plan_of_case c } in
  let gen =
    target.workload ~cfg ~seed:c.seed
      ~skew:(float_of_int c.skew_pct /. 100.0)
      ~cross:(float_of_int c.cross_pct /. 100.0)
  in
  let outcome =
    Drive.run ~seed:c.seed ~clients:c.clients
      ~duration:(float_of_int c.seconds) ~nemesis_at:0.0 ~max_events
      ~actions:(actions_of_case c)
      ~cfg ~make ~gen ~nemesis:Nemesis.calm ()
  in
  let verdict =
    if not (Drive.passed outcome) then Safety
    else if not (Liveness.clean outcome.Drive.liveness) then Liveness
    else Clean
  in
  { case = c; verdict; signature = signature_of outcome; outcome }

(* {2 Generation and mutation} *)

(* [List.init]'s application order is unspecified; schedule generation
   must consume the RNG in a fixed order. *)
let init_seq n f =
  let rec go i acc = if i >= n then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

let horizon_us c = c.seconds * 1_000_000

let gen_op rng ~slots ~nodes ~horizon =
  let at () = 100_000 + Rng.int rng (horizon - 200_000) in
  let member () = Rng.int rng nodes in
  match Rng.int rng 9 with
  | 0 ->
      Crash
        {
          node = member ();
          at_us = at ();
          (* The downtime may outlive the horizon: the recovery then
             lands during the drain, after the last commit — the only
             window in which a phantom secondary survives masking. *)
          downtime_us = 100_000 + Rng.int rng 2_900_000;
        }
  | 1 -> Isolate { node = member (); at_us = at (); dur_us = 100_000 + Rng.int rng 1_400_000 }
  | 2 ->
      Straggle
        {
          node = member ();
          factor = 2 + Rng.int rng 14;
          at_us = at ();
          dur_us = 200_000 + Rng.int rng 1_800_000;
        }
  | 3 ->
      Slow_link
        {
          dst = member ();
          extra_us = 1_000 + Rng.int rng 19_000;
          at_us = at ();
          dur_us = 100_000 + Rng.int rng 900_000;
        }
  | 4 -> Lossy { pct = 5 + Rng.int rng 35; at_us = at (); dur_us = 100_000 + Rng.int rng 900_000 }
  | 5 -> Burst { node = member (); at_us = at (); dur_us = 200_000 + Rng.int rng 1_300_000 }
  | 6 -> Join { node = nodes + Rng.int rng (slots - nodes); at_us = at () }
  | 7 -> Decommission { node = member (); at_us = at () }
  | _ -> Crash_rejoin { node = member (); at_us = at (); cycles = 1 + Rng.int rng 2 }

let generate ?proto rng ~target ~phantom ~name =
  let proto =
    match proto with
    | Some p -> p
    | None -> fst (List.nth target.protos (Rng.int rng (List.length target.protos)))
  in
  let seconds = 2 in
  let c0 =
    {
      name;
      seed = 1 + Rng.int rng 1_000_000;
      proto;
      seconds;
      clients = 4 + Rng.int rng 5;
      phantom;
      overload = Rng.bernoulli rng 0.3;
      skew_pct = Rng.choose rng [| 0; 50; 90; 99 |];
      cross_pct = Rng.choose rng [| 10; 30; 50 |];
      ops = [];
    }
  in
  let cfg = cfg_of_case c0 in
  let slots = Config.total_slots cfg and nodes = cfg.Config.nodes in
  let horizon = horizon_us c0 in
  let nops = 1 + Rng.int rng 6 in
  { c0 with ops = init_seq nops (fun _ -> gen_op rng ~slots ~nodes ~horizon) }

let clamp lo hi v = Stdlib.max lo (Stdlib.min hi v)

let shift_op rng ~horizon op =
  let nudge at =
    clamp 100_000 (horizon - 100_000) (at + Rng.int_in rng (-300_000) 300_000)
  in
  match op with
  | Crash c -> Crash { c with at_us = nudge c.at_us }
  | Isolate c -> Isolate { c with at_us = nudge c.at_us }
  | Straggle c -> Straggle { c with at_us = nudge c.at_us }
  | Slow_link c -> Slow_link { c with at_us = nudge c.at_us }
  | Lossy c -> Lossy { c with at_us = nudge c.at_us }
  | Burst c -> Burst { c with at_us = nudge c.at_us }
  | Join c -> Join { c with at_us = nudge c.at_us }
  | Decommission c -> Decommission { c with at_us = nudge c.at_us }
  | Crash_rejoin c -> Crash_rejoin { c with at_us = nudge c.at_us }

let retarget_op rng ~slots ~nodes op =
  let member () = Rng.int rng nodes in
  match op with
  | Crash c -> Crash { c with node = member () }
  | Isolate c -> Isolate { c with node = member () }
  | Straggle c -> Straggle { c with node = member () }
  | Slow_link c -> Slow_link { c with dst = member () }
  | Lossy _ -> op
  | Burst c -> Burst { c with node = member () }
  | Join c -> Join { c with node = nodes + Rng.int rng (slots - nodes) }
  | Decommission c -> Decommission { c with node = member () }
  | Crash_rejoin c -> Crash_rejoin { c with node = member () }

let map_nth f i ops = List.mapi (fun j op -> if j = i then f op else op) ops

let mutate rng ~target ~name base =
  let cfg = cfg_of_case base in
  let slots = Config.total_slots cfg and nodes = cfg.Config.nodes in
  let horizon = horizon_us base in
  let step c =
    let len = List.length c.ops in
    match Rng.int rng 7 with
    | 0 -> { c with ops = c.ops @ [ gen_op rng ~slots ~nodes ~horizon ] }
    | 1 when len > 1 ->
        let i = Rng.int rng len in
        { c with ops = List.filteri (fun j _ -> j <> i) c.ops }
    | 2 when len > 0 ->
        let i = Rng.int rng len in
        { c with ops = map_nth (fun _ -> gen_op rng ~slots ~nodes ~horizon) i c.ops }
    | 3 when len > 0 ->
        let i = Rng.int rng len in
        { c with ops = map_nth (shift_op rng ~horizon) i c.ops }
    | 4 -> { c with seed = 1 + Rng.int rng 1_000_000 }
    | 5 when len > 0 ->
        let i = Rng.int rng len in
        { c with ops = map_nth (retarget_op rng ~slots ~nodes) i c.ops }
    | 6 ->
        (* Protocol switch: the same schedule often behaves very
           differently under another engine (standard vs batch-mode
           remaster paths), so coverage transfers. *)
        let p =
          fst (List.nth target.protos (Rng.int rng (List.length target.protos)))
        in
        { c with proto = p }
    | _ -> { c with ops = c.ops @ [ gen_op rng ~slots ~nodes ~horizon ] }
  in
  let c = { base with name } in
  let steps = 1 + Rng.int rng 2 in
  let rec go c i = if i >= steps then c else go (step c) (i + 1) in
  go c 0

(* {2 Delta-debugging shrinker (ddmin)} *)

let split_chunks lst n =
  let len = List.length lst in
  let base = len / n and extra = len mod n in
  let rec go i rest acc =
    if i >= n then List.rev acc
    else
      let size = base + if i < extra then 1 else 0 in
      let rec take k xs got =
        if k = 0 then (List.rev got, xs)
        else
          match xs with
          | [] -> (List.rev got, [])
          | x :: tl -> take (k - 1) tl (x :: got)
      in
      let chunk, rest = take size rest [] in
      go (i + 1) rest (chunk :: acc)
  in
  go 0 lst []

let shrink ?(budget = 150) ~target case verdict =
  let runs = ref 0 in
  let reproduces ops =
    !runs < budget
    &&
    (incr runs;
     (run_case ~target { case with ops }).verdict = verdict)
  in
  let rec ddmin ops n =
    let len = List.length ops in
    if len <= 1 then ops
    else
      let chunks = split_chunks ops n in
      match List.find_opt reproduces chunks with
      | Some c -> ddmin c 2
      | None -> (
          let complements =
            List.mapi
              (fun i _ ->
                List.concat (List.filteri (fun j _ -> j <> i) chunks))
              chunks
          in
          match List.find_opt reproduces complements with
          | Some comp -> ddmin comp (Stdlib.max (n - 1) 2)
          | None ->
              if n < len then ddmin ops (Stdlib.min len (2 * n)) else ops)
  in
  let ops =
    if reproduces [] then []
    else ddmin case.ops (Stdlib.min 2 (List.length case.ops))
  in
  ({ case with ops; name = case.name ^ "-min" }, !runs)

(* {2 Corpus serialization}

   The corpus schema is flat — objects, arrays, integers, booleans and
   [a-z0-9-] strings — written by hand below and read back with
   [Lion_kernel.Json]. All numeric fields are integers, making
   write-then-read byte-exact. *)

module Json = Lion_kernel.Json

let op_to_json op =
  let p = Printf.sprintf in
  match op with
  | Crash { node; at_us; downtime_us } ->
      p {|{"op":"crash","node":%d,"at_us":%d,"downtime_us":%d}|} node at_us
        downtime_us
  | Isolate { node; at_us; dur_us } ->
      p {|{"op":"isolate","node":%d,"at_us":%d,"dur_us":%d}|} node at_us dur_us
  | Straggle { node; factor; at_us; dur_us } ->
      p {|{"op":"straggle","node":%d,"factor":%d,"at_us":%d,"dur_us":%d}|} node
        factor at_us dur_us
  | Slow_link { dst; extra_us; at_us; dur_us } ->
      p {|{"op":"slow_link","dst":%d,"extra_us":%d,"at_us":%d,"dur_us":%d}|}
        dst extra_us at_us dur_us
  | Lossy { pct; at_us; dur_us } ->
      p {|{"op":"lossy","pct":%d,"at_us":%d,"dur_us":%d}|} pct at_us dur_us
  | Burst { node; at_us; dur_us } ->
      p {|{"op":"burst","node":%d,"at_us":%d,"dur_us":%d}|} node at_us dur_us
  | Join { node; at_us } -> p {|{"op":"join","node":%d,"at_us":%d}|} node at_us
  | Decommission { node; at_us } ->
      p {|{"op":"decommission","node":%d,"at_us":%d}|} node at_us
  | Crash_rejoin { node; at_us; cycles } ->
      p {|{"op":"crash_rejoin","node":%d,"at_us":%d,"cycles":%d}|} node at_us
        cycles

let to_json ~expect c =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"version\": 1,\n";
  Printf.bprintf b "  \"name\": \"%s\",\n" (Json.escape c.name);
  Printf.bprintf b "  \"seed\": %d,\n" c.seed;
  Printf.bprintf b "  \"proto\": \"%s\",\n" (Json.escape c.proto);
  Printf.bprintf b "  \"seconds\": %d,\n" c.seconds;
  Printf.bprintf b "  \"clients\": %d,\n" c.clients;
  Printf.bprintf b "  \"phantom\": %b,\n" c.phantom;
  Printf.bprintf b "  \"overload\": %b,\n" c.overload;
  Printf.bprintf b "  \"skew_pct\": %d,\n" c.skew_pct;
  Printf.bprintf b "  \"cross_pct\": %d,\n" c.cross_pct;
  Printf.bprintf b "  \"expect\": \"%s\",\n" (verdict_name expect);
  Printf.bprintf b "  \"ops\": [";
  List.iteri
    (fun i op ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n    %s" (op_to_json op))
    c.ops;
  if c.ops <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}\n";
  Buffer.contents b

let op_of_json v =
  let i name = Json.get_int name v in
  match Json.get_str "op" v with
  | "crash" ->
      Crash { node = i "node"; at_us = i "at_us"; downtime_us = i "downtime_us" }
  | "isolate" -> Isolate { node = i "node"; at_us = i "at_us"; dur_us = i "dur_us" }
  | "straggle" ->
      Straggle
        { node = i "node"; factor = i "factor"; at_us = i "at_us"; dur_us = i "dur_us" }
  | "slow_link" ->
      Slow_link
        { dst = i "dst"; extra_us = i "extra_us"; at_us = i "at_us"; dur_us = i "dur_us" }
  | "lossy" -> Lossy { pct = i "pct"; at_us = i "at_us"; dur_us = i "dur_us" }
  | "burst" -> Burst { node = i "node"; at_us = i "at_us"; dur_us = i "dur_us" }
  | "join" -> Join { node = i "node"; at_us = i "at_us" }
  | "decommission" -> Decommission { node = i "node"; at_us = i "at_us" }
  | "crash_rejoin" ->
      Crash_rejoin { node = i "node"; at_us = i "at_us"; cycles = i "cycles" }
  | other -> raise (Json.Parse_error ("unknown op " ^ other))

let verdict_of_string = function
  | "clean" -> Clean
  | "safety" -> Safety
  | "liveness" -> Liveness
  | other -> raise (Json.Parse_error ("unknown verdict " ^ other))

let of_json text =
  try
    let v = Json.parse text in
    if Json.get_int "version" v <> 1 then Error "unsupported corpus version"
    else
      Ok
        ( {
            name = Json.get_str "name" v;
            seed = Json.get_int "seed" v;
            proto = Json.get_str "proto" v;
            seconds = Json.get_int "seconds" v;
            clients = Json.get_int "clients" v;
            phantom = Json.get_bool "phantom" v;
            overload = Json.get_bool "overload" v;
            skew_pct = Json.get_int "skew_pct" v;
            cross_pct = Json.get_int "cross_pct" v;
            ops = List.map op_of_json (Json.get_arr "ops" v);
          },
          verdict_of_string (Json.get_str "expect" v) )
  with Json.Parse_error msg -> Error msg

let save ~dir ~expect c =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (c.name ^ ".json") in
  let oc = open_out path in
  output_string oc (to_json ~expect c);
  close_out oc;
  path

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> of_json text

(* {2 Campaign loop} *)

type campaign_result = {
  rounds_run : int;
  pool_size : int;
  failures : (result * case option) list;
}

let campaign ?(rounds = 40) ?(shrink_failures = true) ?max_events ?(log = fun _ -> ())
    ~seed ~phantom ~target () =
  let rng = Rng.create (0x66757a7a lxor seed) in
  let seen = Hashtbl.create 64 in
  let pool = ref [] in
  let pool_n = ref 0 in
  let failures = ref [] in
  (* Fresh generates cycle through the protocol registry instead of
     drawing it at random: pool mutations inherit their parent's
     protocol, so a random draw lets an early-pool protocol crowd the
     others out of a short campaign entirely. *)
  let fresh_n = ref 0 in
  for round = 1 to rounds do
    let name = Printf.sprintf "fuzz-s%d-r%03d" seed round in
    let case =
      if !pool_n > 0 && Rng.bernoulli rng 0.6 then
        mutate rng ~target ~name (List.nth !pool (Rng.int rng !pool_n))
      else begin
        let proto =
          fst (List.nth target.protos (!fresh_n mod List.length target.protos))
        in
        incr fresh_n;
        generate ~proto rng ~target ~phantom ~name
      end
    in
    let r = run_case ?max_events ~target case in
    let key = String.concat "," r.signature in
    let fresh = not (Hashtbl.mem seen key) in
    if fresh then (
      Hashtbl.add seen key ();
      pool := case :: !pool;
      incr pool_n);
    log
      (Printf.sprintf "round %3d/%d %-18s %-8s %d ops, %d signals%s%s" round
         rounds case.proto (verdict_name r.verdict) (List.length case.ops)
         (List.length r.signature)
         (if fresh then " [new coverage]" else "")
         (if r.verdict <> Clean then " [FAILURE]" else ""));
    if r.verdict <> Clean then begin
      let shrunk =
        if shrink_failures then begin
          let mini, spent = shrink ~target case r.verdict in
          log
            (Printf.sprintf "  shrunk %d ops -> %d ops in %d runs"
               (List.length case.ops) (List.length mini.ops) spent);
          Some mini
        end
        else None
      in
      failures := (r, shrunk) :: !failures
    end
  done;
  {
    rounds_run = rounds;
    pool_size = Hashtbl.length seen;
    failures = List.rev !failures;
  }
