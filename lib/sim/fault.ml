module Rng = Lion_kernel.Rng

type spec =
  | Crash of { node : int; at : float; recover_at : float option }
  | Partition of { groups : int list list; from_ : float; until : float }
  | Drop of {
      src : int option;
      dst : int option;
      prob : float;
      from_ : float;
      until : float;
    }
  | Jitter of { extra : float; from_ : float; until : float }
  | Straggler of { node : int; factor : float; from_ : float; until : float }
  | Delay of {
      src : int option;
      dst : int option;
      extra : float;
      from_ : float;
      until : float;
    }

type plan = spec list

let none : plan = []
let crash ~node ~at ?recover_at () = Crash { node; at; recover_at }
let partition ~groups ~from_ ~until = Partition { groups; from_; until }
let drop ?src ?dst ~prob ~from_ ~until () = Drop { src; dst; prob; from_; until }
let jitter ~extra ~from_ ~until = Jitter { extra; from_; until }
let delay ?src ?dst ~extra ~from_ ~until () = Delay { src; dst; extra; from_; until }
let straggler ~node ~factor ~from_ ~until = Straggler { node; factor; from_; until }

(* Named scenarios: each is a plan, and plans compose with [@]. The
   audit's nemesis table, the fuzzer's ops and the experiments all
   build their plans from these, so a recipe is written once. *)
let crash_recover ~node ~at ~downtime =
  [ crash ~node ~at ~recover_at:(at +. downtime) () ]

let split_brain ~groups ~at ~duration =
  [ partition ~groups ~from_:at ~until:(at +. duration) ]

let isolate ~node ~nodes ~at ~duration =
  let others = List.filter (fun n -> n <> node) (List.init nodes Fun.id) in
  split_brain ~groups:[ [ node ]; others ] ~at ~duration

let lossy ?src ?dst ~prob ~from_ ~until () = [ drop ?src ?dst ~prob ~from_ ~until () ]
let slow_node ~node ~factor ~from_ ~until = [ straggler ~node ~factor ~from_ ~until ]

(* Overload trigger (docs/OVERLOAD.md): slow the busiest coordinator
   while the network sheds a slice of messages in the same window —
   service queues back up, RPC timeouts and retries pile on, and a
   cluster without retry discipline can sustain the collapse after the
   window ends. The audit checks that even then no anomaly appears:
   shedding and fast-failing must lose availability, never safety. *)
let overload_burst ~node ~at ~duration =
  let until = at +. duration in
  slow_node ~node ~factor:6.0 ~from_:at ~until @ lossy ~prob:0.15 ~from_:at ~until ()

(* Crash/rejoin cycles engineered to land inside replication-stream
   windows (docs/MEMBERSHIP.md). Each cycle, anchored on a planner tick
   (cycles repeat every second, the audit driver's tick period):

   - for [hold] µs before the crash, messages to the node are held in
     flight just long enough ([Delay], deterministic) to be delivered
     after the node has crashed AND rejoined — the classic stale
     replication ack;
   - the crash itself lands [hold] after the tick, so a replica install
     the planner initiated at the tick (a [Config.replica_add_duration]
     = 200 ms background copy) completes after the rejoin too —
     a stale snapshot install.

   The cluster rejects both as stale sessions and the audit is clean;
   under the [Cluster.reintroduce_stale_sessions] test hook both are
   accepted and corrupt the apply watermarks (the divergence audit
   reports [Stale_replica]). *)
let crash_rejoin ~node ~cycles ~at =
  let hold = 50_000.0 and downtime = 120_000.0 and period = 1_000_000.0 in
  let extra = downtime +. hold +. 30_000.0 in
  List.concat
    (List.init (Stdlib.max 1 cycles) (fun k ->
         let t0 = at +. (float_of_int k *. period) in
         delay ~dst:node ~extra ~from_:t0 ~until:(t0 +. hold) ()
         :: crash_recover ~node ~at:(t0 +. hold) ~downtime))

(* Seeded schedule generator: [events] random windows over [window] µs
   from [at]. Its generator is its own, seeded from [seed] alone, so
   building the plan draws nothing from the simulation. *)
let adversarial ~seed ~nodes ~events ~window ~at =
  let rng = Rng.create (0x6e656d65 lxor seed) in
  List.concat
    (List.init events (fun _ ->
         let t0 = at +. Rng.float rng (window *. 0.8) in
         let dur = 100_000.0 +. Rng.float rng (window /. 4.0) in
         match Rng.int rng 4 with
         | 0 ->
             let node = Rng.int rng nodes in
             crash_recover ~node ~at:t0 ~downtime:dur
         | 1 ->
             let node = Rng.int rng nodes in
             isolate ~node ~nodes ~at:t0 ~duration:dur
         | 2 ->
             let node = Rng.int rng nodes in
             slow_node ~node ~factor:(2.0 +. Rng.float rng 14.0) ~from_:t0 ~until:(t0 +. dur)
         | _ -> lossy ~prob:(0.05 +. Rng.float rng 0.4) ~from_:t0 ~until:(t0 +. dur) ()))

(* [link_specs] and [stragglers] split [plan] by what consults each
   spec, keeping plan order, so a message never walks crash or
   straggler specs and a CPU charge never walks link specs. *)
type t = {
  rng : Rng.t;
  plan : plan;
  link_specs : spec list;
  stragglers : spec list;
  down : bool array;
}

let create ?(seed = 17) ~nodes plan =
  {
    (* Offset the seed so the fault stream never aliases the cluster's
       other per-seed generators. *)
    rng = Rng.create ((seed * 1_000_003) + 7);
    plan;
    link_specs =
      List.filter
        (function
          | Partition _ | Drop _ | Jitter _ | Delay _ -> true
          | Crash _ | Straggler _ -> false)
        plan;
    stragglers = List.filter (function Straggler _ -> true | _ -> false) plan;
    down = Array.make (Stdlib.max 1 nodes) false;
  }

let plan t = t.plan
let[@inline] up t node = not t.down.(node)
let mark_down t node = t.down.(node) <- true
let mark_up t node = t.down.(node) <- false

let active ~(now : float) ~from_ ~until = now >= from_ && now < until

type verdict = Deliver of float | Blocked | Dropped

let group_of groups node =
  let rec go i = function
    | [] -> -1
    | g :: rest -> if List.mem node g then i else go (i + 1) rest
  in
  go 0 groups

(* Shared, so a delivery with no added latency allocates nothing. *)
let deliver_now = Deliver 0.0

let[@inline] link_inert t = match t.link_specs with [] -> true | _ :: _ -> false
let endpoints t ~src ~dst = if up t src && up t dst then deliver_now else Dropped

(* The RNG is consulted only when an active probabilistic spec matches
   this message, so an empty (or inactive) plan perturbs nothing — the
   no-fault event schedule stays bit-for-bit identical. *)
let link t ~now ~src ~dst =
  if not (up t src && up t dst) then Dropped
  else (
    let rec go extra = function
      | [] -> if extra = 0.0 then deliver_now else Deliver extra
      | spec :: rest -> (
          match spec with
          | Partition { groups; from_; until } when active ~now ~from_ ~until ->
              let gs = group_of groups src and gd = group_of groups dst in
              if gs >= 0 && gd >= 0 && gs <> gd then Blocked else go extra rest
          | Drop { src = s; dst = d; prob; from_; until }
            when active ~now ~from_ ~until
                 && (match s with None -> true | Some n -> n = src)
                 && (match d with None -> true | Some n -> n = dst) ->
              if prob > 0.0 && Rng.bernoulli t.rng prob then Dropped
              else go extra rest
          | Jitter { extra = e; from_; until }
            when active ~now ~from_ ~until && e > 0.0 ->
              go (extra +. Rng.float t.rng e) rest
          (* Unlike [Jitter], the added latency is deterministic: no RNG
             draw, so a plan using only [Delay] replays bit-for-bit. A
             message sent inside the window is slowed by the full
             [extra] — long enough, and it is still in flight when its
             destination crashes and rejoins. *)
          | Delay { src = s; dst = d; extra = e; from_; until }
            when active ~now ~from_ ~until && e > 0.0
                 && (match s with None -> true | Some n -> n = src)
                 && (match d with None -> true | Some n -> n = dst) ->
              go (extra +. e) rest
          | _ -> go extra rest)
    in
    go 0.0 t.link_specs)

let[@inline] slow_inert t = match t.stragglers with [] -> true | _ :: _ -> false

let slow_factor t ~now node =
  List.fold_left
    (fun acc spec ->
      match spec with
      | Straggler { node = n; factor; from_; until }
        when n = node && active ~now ~from_ ~until ->
          acc *. factor
      | _ -> acc)
    1.0 t.stragglers

let crash_events plan =
  let evs =
    List.concat_map
      (function
        | Crash { node; at; recover_at } ->
            (at, `Crash node)
            ::
            (match recover_at with
            | Some r -> [ (r, `Recover node) ]
            | None -> [])
        | _ -> [])
      plan
  in
  List.stable_sort (fun (a, _) (b, _) -> compare a b) evs
