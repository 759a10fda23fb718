module Fault = Lion_sim.Fault
module Rng = Lion_kernel.Rng

type t = { name : string; dur : float; build : float -> Fault.plan }

let name n = n.name
let duration n = n.dur
let plan n ~at = n.build at
let v ~name ~dur build = { name; dur; build }

let calm = { name = "calm"; dur = 0.0; build = (fun _ -> []) }

let crash ?(downtime = 2_000_000.0) ~node () =
  {
    name = Printf.sprintf "crash-n%d" node;
    dur = downtime;
    build = (fun at -> Fault.crash_recover ~node ~at ~downtime);
  }

let partition ?(duration = 1_000_000.0) ~groups () =
  {
    name = "partition";
    dur = duration;
    build = (fun at -> [ Fault.partition ~groups ~from_:at ~until:(at +. duration) ]);
  }

let isolate ?(duration = 1_000_000.0) ~node ~nodes () =
  let others = List.filter (fun n -> n <> node) (List.init nodes Fun.id) in
  {
    (partition ~duration ~groups:[ [ node ]; others ] ()) with
    name = Printf.sprintf "isolate-n%d" node;
  }

let straggler ?(duration = 2_000_000.0) ?(factor = 8.0) ~node () =
  {
    name = Printf.sprintf "straggler-n%d" node;
    dur = duration;
    build =
      (fun at -> [ Fault.straggler ~node ~factor ~from_:at ~until:(at +. duration) ]);
  }

let lossy ?(duration = 1_000_000.0) ?(prob = 0.3) () =
  {
    name = "lossy";
    dur = duration;
    build =
      (fun at -> Fault.lossy ~prob ~from_:at ~until:(at +. duration) ());
  }

(* {2 Combinators} *)

let rename name n = { n with name }

let seq ?(gap = 0.0) parts =
  let dur =
    List.fold_left (fun acc n -> acc +. n.dur +. gap) 0.0 parts
    -. if parts = [] then 0.0 else gap
  in
  {
    name = String.concat "+" (List.map (fun n -> n.name) parts);
    dur = Stdlib.max 0.0 dur;
    build =
      (fun at ->
        let _, specs =
          List.fold_left
            (fun (t0, acc) n -> (t0 +. n.dur +. gap, acc @ n.build t0))
            (at, []) parts
        in
        specs);
  }

let overlay parts =
  {
    name = String.concat "&" (List.map (fun n -> n.name) parts);
    dur = List.fold_left (fun acc n -> Stdlib.max acc n.dur) 0.0 parts;
    build = (fun at -> List.concat_map (fun n -> n.build at) parts);
  }

let stagger ~gap parts =
  let dur =
    List.fold_left
      (fun (i, acc) n -> (i + 1, Stdlib.max acc ((float_of_int i *. gap) +. n.dur)))
      (0, 0.0) parts
    |> snd
  in
  {
    name = String.concat "~" (List.map (fun n -> n.name) parts);
    dur;
    build =
      (fun at ->
        List.concat
          (List.mapi (fun i n -> n.build (at +. (float_of_int i *. gap))) parts));
  }

let repeat ?(gap = 0.0) ~times n =
  rename
    (Printf.sprintf "%dx(%s)" times n.name)
    (seq ~gap (List.init (Stdlib.max 1 times) (fun _ -> n)))

(* {2 Adversarial scenarios} *)

(* Crash the node most likely to be mid-remaster: under Lion, the
   coordinator being promoted. A short downtime keeps the transfer
   window and the recovery both inside the run. *)
let crash_during_remaster ?(node = 1) ?(downtime = 500_000.0) () =
  rename
    (Printf.sprintf "crash-during-remaster-n%d" node)
    (crash ~downtime ~node ())

(* Cut a primary-heavy node away from the rest: its partitions must
   fail over while every log ship to and from it dies. *)
let partition_primary_from_majority ?(node = 0) ?(duration = 1_000_000.0) ~nodes () =
  rename
    (Printf.sprintf "partition-primary-n%d" node)
    (isolate ~duration ~node ~nodes ())

(* Slow the busiest coordinator without killing it: transactions keep
   routing there, timeouts and retries pile up. *)
let straggler_on_coordinator ?(node = 0) ?(duration = 2_000_000.0) ?(factor = 16.0) () =
  rename
    (Printf.sprintf "straggler-coordinator-n%d" node)
    (straggler ~duration ~factor ~node ())

(* Overload trigger (docs/OVERLOAD.md): slow the busiest coordinator
   while the network sheds a slice of messages in the same window —
   service queues back up, RPC timeouts and retries pile on, and a
   cluster without retry discipline can sustain the collapse after the
   window ends. The audit checks that even then no anomaly appears:
   shedding and fast-failing must lose availability, never safety. *)
let overload_burst ?(node = 0) ?(duration = 2_000_000.0) ?(factor = 6.0)
    ?(prob = 0.15) () =
  rename
    (Printf.sprintf "overload-burst-n%d" node)
    (overlay [ straggler ~duration ~factor ~node (); lossy ~duration ~prob () ])

(* Crash/rejoin cycles engineered to land inside replication-stream
   windows (docs/MEMBERSHIP.md). Each cycle, anchored on a planner tick
   (cycles default to the driver's 1 s tick period):

   - for [hold] µs before the crash, messages to the node are held in
     flight just long enough ([Fault.Delay], deterministic) to be
     delivered after the node has crashed AND rejoined — the classic
     stale replication ack;
   - the crash itself lands [hold] after the tick, so a replica install
     the planner initiated at the tick (a [Config.replica_add_duration]
     = 200 ms background copy) completes after the rejoin too —
     a stale snapshot install.

   Untagged sessions accept both and corrupt the apply watermarks
   (the divergence audit reports [Stale_replica]); with
   [Config.session_tagging] both are rejected and the audit is clean. *)
let crash_rejoin ?(node = 1) ?(cycles = 2) ?(period = 1_000_000.0)
    ?(downtime = 120_000.0) () =
  let hold = 50_000.0 in
  let extra = downtime +. hold +. 30_000.0 in
  {
    name = Printf.sprintf "crash-rejoin-n%d" node;
    dur = (float_of_int (Stdlib.max 1 cycles - 1) *. period) +. hold +. downtime;
    build =
      (fun at ->
        List.concat
          (List.init (Stdlib.max 1 cycles) (fun k ->
               let t0 = at +. (float_of_int k *. period) in
               Fault.delay ~dst:node ~extra ~from_:t0 ~until:(t0 +. hold) ()
               :: Fault.crash_recover ~node ~at:(t0 +. hold) ~downtime)));
  }

(* {2 Seeded schedule generator} *)

let adversarial ?(events = 6) ?(window = 6_000_000.0) ~seed ~nodes () =
  {
    name = Printf.sprintf "adversarial-s%d" seed;
    dur = window;
    build =
      (fun at ->
        let rng = Rng.create (0x6e656d65 lxor seed) in
        List.concat
          (List.init events (fun _ ->
               let t0 = at +. Rng.float rng (window *. 0.8) in
               let dur = 100_000.0 +. Rng.float rng (window /. 4.0) in
               match Rng.int rng 4 with
               | 0 ->
                   let node = Rng.int rng nodes in
                   Fault.crash_recover ~node ~at:t0 ~downtime:dur
               | 1 ->
                   let cut = Rng.int rng nodes in
                   let rest = List.filter (fun n -> n <> cut) (List.init nodes Fun.id) in
                   [ Fault.partition ~groups:[ [ cut ]; rest ] ~from_:t0 ~until:(t0 +. dur) ]
               | 2 ->
                   let node = Rng.int rng nodes in
                   [
                     Fault.straggler ~node
                       ~factor:(2.0 +. Rng.float rng 14.0)
                       ~from_:t0 ~until:(t0 +. dur);
                   ]
               | _ ->
                   [
                     Fault.drop
                       ~prob:(0.05 +. Rng.float rng 0.4)
                       ~from_:t0 ~until:(t0 +. dur) ();
                   ])));
  }
