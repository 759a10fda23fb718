module Cluster = Lion_store.Cluster
module Transport = Lion_store.Transport
module Placement = Lion_store.Placement
module Kvstore = Lion_store.Kvstore
module Config = Lion_store.Config
module Engine = Lion_sim.Engine
module Network = Lion_sim.Network
module Metrics = Lion_sim.Metrics
module Rng = Lion_kernel.Rng
module Txn = Lion_workload.Txn
module Trace = Lion_trace.Trace
module History = Lion_store.History

type flavor = {
  remaster_secondary : bool;
  migrate_on_access : bool;
  unified_commit : bool;
  read_at_secondary : bool;
}

let plain_2pc =
  {
    remaster_secondary = false;
    migrate_on_access = false;
    unified_commit = false;
    read_at_secondary = false;
  }

let leap_flavor = { plain_2pc with migrate_on_access = true }
let lion_flavor = { plain_2pc with remaster_secondary = true }
let unified_flavor = { plain_2pc with unified_commit = true }

(* Grouping without a table. A transaction's partition groups are
   visited in first-appearance order: operation [i] opens a group iff no
   earlier operation shares its partition, and the group is every
   operation from [i] on in that partition, in op order. [parts] (each
   operation's partition) and [links] (the chain of group-opening
   operations) are computed once per transaction, so an attempt moves
   from group to group by one array read. Transactions carry a few dozen
   operations over a handful of partitions, so scanning the groups
   opened so far is cheaper than a table, and it allocates nothing. *)
let parts_of_ops (ops : Txn.op array) =
  let parts = Array.make (Array.length ops) 0 in
  for i = 0 to Array.length ops - 1 do
    parts.(i) <- Kvstore.part (Txn.key_of ops.(i))
  done;
  parts

(* Whether a group opened at [o] or at a later opener in the chain
   already holds partition [p]. *)
let rec opened (parts : int array) links p o =
  o < Array.length parts && (parts.(o) = p || opened parts links p links.(o))

(* For an operation [i] that opens a group, [links.(i)] is the operation
   opening the next one, or [Array.length parts] after the last. Other
   entries are -1. The first group, if any, opens at 0. Each operation
   is checked against the groups opened before it only. *)
let group_links parts =
  let n = Array.length parts in
  let links = Array.make n (-1) in
  if n > 0 then links.(0) <- n;
  let last = ref 0 in
  for i = 1 to n - 1 do
    if not (opened parts links parts.(i) 0) then (
      links.(!last) <- i;
      links.(i) <- n;
      last := i)
  done;
  links

let rec group_size (parts : int array) p i n =
  if i >= Array.length parts then n
  else group_size parts p (i + 1) (if parts.(i) = p then n + 1 else n)

let rec group_all_reads (parts : int array) (ops : Txn.op array) p i =
  i >= Array.length parts
  || ((parts.(i) <> p || not (Txn.is_write ops.(i))) && group_all_reads parts ops p (i + 1))

let groups_of (txn : Txn.t) =
  let ops = txn.Txn.ops in
  let parts = parts_of_ops ops in
  let links = group_links parts in
  let rec from g =
    if g >= Array.length ops then []
    else
      let p = parts.(g) in
      let members = ref [] in
      for i = Array.length ops - 1 downto g do
        if parts.(i) = p then members := ops.(i) :: !members
      done;
      (p, !members) :: from links.(g)
  in
  from 0

(* Ties break on a hash of the partition set so coordinators spread
   across the tied nodes instead of piling onto one id. *)
let route_most_primaries cl (txn : Txn.t) =
  let placement = cl.Cluster.placement in
  let nodes = Placement.nodes placement in
  (* One pass, highest id first, so the tie list comes out ascending. *)
  let best_count = ref (-1) and tied = ref [] in
  for node = nodes - 1 downto 0 do
    if Cluster.alive cl node then (
      let count = Placement.count_primaries_at placement txn.Txn.parts ~node in
      if count > !best_count then (
        best_count := count;
        tied := [ node ])
      else if count = !best_count then tied := node :: !tied)
  done;
  match !tied with
  | [] -> invalid_arg "route_most_primaries: no live node"
  | [ n ] -> n
  | candidates -> List.nth candidates (Hashtbl.hash txn.Txn.parts mod List.length candidates)

let record_op session op =
  if Txn.is_write op then Kvstore.write session (Txn.key_of op)
  else Kvstore.read session (Txn.key_of op)

(* Leap-style aggressive mastership pull: ownership (and the accessed
   tuples) move to the coordinator before the operation executes. *)
let leap_migration_overhead = 200.0

let nop () = ()

(* ---- Transaction and attempt state ----

   A transaction is one [txn_run]; each execution attempt is one
   [attempt] record that the step functions below advance from event to
   event, so a hop costs an engine cell rather than a fresh closure.
   Attempts of one transaction never overlap, but an attempt's record
   outlives it while stragglers of a failed prepare round still answer,
   which is why each attempt gets a fresh one. *)

type txn_run = {
  cl : Cluster.t;
  route : Txn.t -> int;
  flavor : flavor;
  txn : Txn.t;
  parts : int array;  (** each operation's partition *)
  links : int array;  (** see [group_links] *)
  on_done : unit -> unit;
  start : float;
  octx : Trace.ctx option;  (** the transaction's root span *)
  enforced : float option;  (** absolute deadline, when enforced *)
  mutable attempts : int;
}

(* All floats, so stored flat: setting a mark allocates nothing. *)
type marks = {
  mutable exec_start : float;
  mutable step_start : float;  (** start of the current remaster, migration or wait *)
  mutable round_start : float;  (** start of the current 2PC round *)
}

type attempt = {
  run : txn_run;
  coordinator : int;
  attempt_no : int;
  actx : Trace.ctx option;  (** this attempt's span *)
  session : Kvstore.session;
  phases : Metrics.phase_times;
  marks : marks;
  lease : Lion_sim.Server.lease;
  mutable span : Trace.ctx option;
      (** the open step span: setup, a group's execution, remaster or
          wait, or a 2PC round *)
  mutable group : int;  (** index of the op opening the current group *)
  mutable part : int;  (** the current group's partition *)
  mutable n_ops : int;  (** operations in the current group *)
  mutable remastered : bool;
  mutable remote_parts : int list;
  mutable participants : int list;
  mutable votes : int;  (** prepare votes still missing *)
  mutable vote_failed : bool;
  mutable acks : int;  (** commit acknowledgements still missing *)
  mutable committed : bool;
  mutable single_node : bool;
  mutable awaiting : awaiting;  (** what the attempt's RPCs answer *)
}

(* The attempt's RPCs are issued with [Transport.call] and two top-level
   handlers that dispatch on this, so they build no closure. Once a
   prepare round fails the attempt never moves on, so straggling votes
   still reach the vote handlers, which ignore them. *)
and awaiting = Exec_reply | Votes | Acks

let engine a = a.run.cl.Cluster.engine
let cfg a = a.run.cl.Cluster.cfg
let now a = Engine.now (engine a)

(* Span helpers: with no trace context they read no clock and box
   nothing. A negative [node] or [part] inherits the parent's. *)
let open_span engine ~node ~part ~phase ~name ctx =
  match ctx with
  | None -> None
  | Some _ ->
      Trace.child
        ?node:(if node < 0 then None else Some node)
        ?part:(if part < 0 then None else Some part)
        ~phase ~name ~ts:(Engine.now engine) ctx

let close_span a =
  match a.span with
  | None -> ()
  | Some _ -> Trace.finish ~ts:(now a) a.span

(* Consistency-audit hook: one history event per attempt, with the
   versions the session observed and (for commits) the versions
   [finalize] installed. [None] records nothing and costs one match —
   runs without a sink are untouched. *)
let record_outcome a outcome =
  let cl = a.run.cl in
  match cl.Cluster.history with
  | None -> ()
  | Some h ->
      let writes =
        match outcome with
        | History.Committed ->
            List.sort_uniq Kvstore.key_compare (Kvstore.write_set a.session)
            |> List.map (fun key -> (key, Kvstore.version cl.Cluster.store key))
        | History.Aborted | History.Indeterminate -> []
      in
      History.record h ~txn_id:a.run.txn.Txn.id ~attempt:a.attempt_no
        ~reads:(Kvstore.observed_reads a.session) ~writes ~outcome ~ts:(now a)

(* The current group's operations, in op order, into the session. *)
let record_group a =
  let ops = a.run.txn.Txn.ops and parts = a.run.parts in
  for i = a.group to Array.length ops - 1 do
    if parts.(i) = a.part then record_op a.session ops.(i)
  done

let local_work a = float_of_int a.n_ops *. Config.local_op_cost

let rec send_oneway a = function
  | [] -> ()
  | node :: rest ->
      Network.send a.run.cl.Cluster.network ~src:a.coordinator ~dst:node
        ~bytes:Config.op_msg_bytes nop;
      send_oneway a rest

(* An attempt that ends without a commit: the coordinator was dead,
   admission shed it, or it aborted. Retry after a backoff, or give the
   transaction up past an enforced deadline. *)
let rec attempt_failed r actx =
  let cl = r.cl in
  let engine = cl.Cluster.engine in
  (match actx with None -> () | Some _ -> Trace.finish ~ts:(Engine.now engine) actx);
  (match (actx, r.octx) with
  | None, None -> ()
  | Some _, _ -> Trace.note_abort ~ts:(Engine.now engine) actx
  | None, Some _ -> Trace.note_abort ~ts:(Engine.now engine) r.octx);
  Metrics.incr cl.Cluster.metrics Aborts;
  match r.enforced with
  | Some d when Engine.now engine >= d ->
      (* Deadline propagation, load-shedding half: a transaction already
         older than any client would wait for stops consuming retries —
         the metastable sustaining loop (ever-growing population of
         retrying zombies) is cut here. *)
      Metrics.incr cl.Cluster.metrics Deadline_giveups;
      (match r.octx with
      | None -> ()
      | Some _ ->
          Trace.note ~ts:(Engine.now engine) "deadline-giveup" r.octx;
          Trace.finish_txn ~ts:(Engine.now engine) ~ok:false r.octx);
      r.on_done ()
  | _ ->
      let cap = Stdlib.min 8 r.attempts in
      let backoff = (50.0 *. float_of_int (1 lsl cap)) +. Rng.float cl.Cluster.rng 50.0 in
      Engine.schedule_apply engine ~delay:(Stdlib.min 2000.0 backoff) start_attempt r

and start_attempt r =
  let cl = r.cl in
  r.attempts <- r.attempts + 1;
  let coordinator = r.route r.txn in
  let actx =
    match r.octx with
    | None -> None
    | Some _ ->
        Trace.child ~node:coordinator ~phase:"execution"
          ~name:(Printf.sprintf "attempt %d" r.attempts)
          ~ts:(Engine.now cl.Cluster.engine) r.octx
  in
  if not (Cluster.alive cl coordinator) then
    (* The router's liveness view lagged the crash: abort immediately;
       the retry loop re-routes to a live coordinator. *)
    attempt_failed r actx
  else
    (* Admission wait gets its own span phase, opened only when the
       grant cannot be immediate (every worker leased right now) — an
       unloaded run allocates nothing and traces identically. *)
    let wait_span =
      match actx with
      | Some _ when Cluster.worker_saturated cl ~node:coordinator ->
          open_span cl.Cluster.engine ~node:coordinator ~part:(-1) ~phase:"queue"
            ~name:"worker-wait" actx
      | _ -> None
    in
    (* The attempt record and its session are built at the grant, so a
       request parked in the worker queue holds neither. *)
    Cluster.acquire_worker cl ~node:coordinator
      ~on_fail:(fun () ->
        (* Shed at admission (bounded worker queue, or the coordinator
           died with this request parked): no lease was granted, so
           there is nothing to release — report the attempt failed. *)
        (match wait_span with
        | None -> ()
        | Some _ ->
            let ts = Engine.now cl.Cluster.engine in
            Trace.note ~ts "shed" wait_span;
            Trace.finish ~ts wait_span);
        attempt_failed r actx)
      (fun lease -> granted r ~coordinator ~actx ~wait_span lease)

and granted r ~coordinator ~actx ~wait_span lease =
  let cl = r.cl in
  (match wait_span with
  | None -> ()
  | Some _ -> Trace.finish ~ts:(Engine.now cl.Cluster.engine) wait_span);
  let a =
    {
      run = r;
      coordinator;
      attempt_no = r.attempts;
      actx;
      session = Kvstore.begin_session ~ops:(Array.length r.parts) cl.Cluster.store;
      phases = Metrics.phase_times ();
      marks =
        { exec_start = Engine.now cl.Cluster.engine; step_start = 0.0; round_start = 0.0 };
      lease;
      span = None;
      group = 0;
      part = 0;
      n_ops = 0;
      remastered = false;
      remote_parts = [];
      participants = [];
      votes = 0;
      vote_failed = false;
      acks = 0;
      committed = false;
      single_node = false;
      awaiting = Exec_reply;
    }
  in
  a.span <-
    open_span (engine a) ~node:coordinator ~part:(-1) ~phase:"scheduling" ~name:"setup"
      actx;
  Engine.schedule_apply (engine a)
    ~delay:(Config.txn_setup_cost *. Cluster.work_scale cl coordinator)
    setup_done a

and setup_done a =
  close_span a;
  step a 0

(* Execute the group opened by operation [g] (or, past the last group,
   validate and commit). *)
and step a g =
  let cl = a.run.cl in
  let parts = a.run.parts in
  if g >= Array.length parts then groups_done a
  else begin
    let part = parts.(g) in
    a.group <- g;
    a.part <- part;
    Cluster.touch_partition cl part;
    a.n_ops <- group_size parts part g 0;
    let wait = Cluster.partition_wait cl part in
    if wait > 0.0 then
      if wait = infinity then
        (* Partition lost its quorum (no surviving replica): don't park
           the transaction on a never-firing event — time out and
           abort, the retry loop keeps probing until the partition's
           node recovers. *)
        Engine.schedule_apply (engine a) ~delay:Config.rpc_timeout part_lost a
      else (
        a.marks.step_start <- now a;
        a.span <-
          open_span (engine a) ~node:(-1) ~part ~phase:"remaster" ~name:"part-wait" a.actx;
        Engine.schedule_apply (engine a) ~delay:wait part_ready a)
    else proceed a
  end

and part_lost a =
  Metrics.incr a.run.cl.Cluster.metrics Timeouts;
  (match a.actx with None -> () | Some _ -> Trace.note ~ts:(now a) "timeout" a.actx);
  fail_txn a

and part_ready a =
  close_span a;
  a.phases.remaster <- a.phases.remaster +. (now a -. a.marks.step_start);
  proceed a

and proceed a =
  let cl = a.run.cl and flavor = a.run.flavor in
  let placement = cl.Cluster.placement in
  let part = a.part and coordinator = a.coordinator in
  if Placement.has_primary placement ~part ~node:coordinator then exec_local a
  else if
    flavor.read_at_secondary
    && group_all_reads a.run.parts a.run.txn.Txn.ops part a.group
    && Placement.has_secondary placement ~part ~node:coordinator
  then
    (* Bounded-staleness read served by the local secondary: no
       promotion, no round trip. *)
    exec_local a
  else if
    flavor.remaster_secondary && Placement.has_secondary placement ~part ~node:coordinator
  then
    if Cluster.try_begin_remaster cl ~part ~node:coordinator then (
      a.remastered <- true;
      a.marks.step_start <- now a;
      a.span <-
        open_span (engine a) ~node:coordinator ~part ~phase:"remaster" ~name:"remaster"
          a.actx;
      Engine.schedule_apply (engine a) ~delay:(cfg a).Config.remaster_delay remaster_done a)
    else
      (* Remastering conflict: another transaction is promoting this
         partition — fall back to 2PC. *)
      exec_remote a
  else if flavor.migrate_on_access then migrate a
  else exec_remote a

and remaster_done a =
  close_span a;
  a.phases.remaster <- a.phases.remaster +. (now a -. a.marks.step_start);
  (* The transfer may not have landed (this node crashed mid-flight and
     the cluster rolled the remaster back): re-check who is primary. *)
  let cl = a.run.cl in
  if not (Cluster.alive cl a.coordinator) then fail_txn a
  else if Placement.has_primary cl.Cluster.placement ~part:a.part ~node:a.coordinator then
    exec_local a
  else exec_remote a

and migrate a =
  let cl = a.run.cl in
  a.remastered <- true;
  let prim = Placement.primary cl.Cluster.placement a.part in
  let bytes = a.n_ops * Config.record_bytes in
  let delay = Network.roundtrip cl.Cluster.network ~bytes +. leap_migration_overhead in
  (* Migration blocks concurrent transactions on the partition for the
     transfer (§II-B). *)
  Cluster.block_partition_for cl ~part:a.part ~duration:delay;
  Network.send cl.Cluster.network ~src:prim ~dst:a.coordinator ~bytes nop;
  a.marks.step_start <- now a;
  a.span <-
    open_span (engine a) ~node:a.coordinator ~part:a.part
      ~phase:"remaster" ~name:"migrate" a.actx;
  Engine.schedule_apply (engine a) ~delay migrate_done a

and migrate_done a =
  close_span a;
  a.phases.remaster <- a.phases.remaster +. (now a -. a.marks.step_start);
  let cl = a.run.cl in
  let placement = cl.Cluster.placement and part = a.part and coordinator = a.coordinator in
  if not (Cluster.alive cl coordinator) then fail_txn a
  else begin
    if not (Placement.has_replica placement ~part ~node:coordinator) then (
      if Placement.replica_count placement part >= Placement.max_replicas placement then
        (* Shed a secondary to make room for the pulled mastership; pick
           deterministically. *)
        (match Placement.secondaries placement part with
        | victim :: _ -> Cluster.drop_secondary cl ~part ~node:victim
        | [] -> ());
      Placement.add_secondary placement ~part ~node:coordinator);
    let old_prim = Placement.primary placement part in
    Placement.remaster placement ~part ~node:coordinator;
    (* The pulled tuples are current as of the pull. *)
    Cluster.note_replica_synced cl ~part ~node:coordinator;
    (* [remaster] demoted the old primary to secondary; if it died while
       the tuples were in flight, purge the phantom copy it would
       otherwise keep. *)
    if old_prim <> coordinator && not (Cluster.alive cl old_prim) then
      Cluster.drop_secondary cl ~part ~node:old_prim;
    exec_local a
  end

and exec_local a =
  record_group a;
  a.span <-
    open_span (engine a) ~node:a.coordinator ~part:a.part ~phase:"execution"
      ~name:"exec-local" a.actx;
  Engine.schedule_apply (engine a)
    ~delay:(local_work a *. Cluster.work_scale a.run.cl a.coordinator)
    local_done a

and local_done a =
  close_span a;
  step a a.run.links.(a.group)

and exec_remote a =
  let cl = a.run.cl in
  a.remote_parts <- a.part :: a.remote_parts;
  let prim = Placement.primary cl.Cluster.placement a.part in
  a.span <-
    open_span (engine a) ~node:prim ~part:a.part
      ~phase:"execution" ~name:"exec-remote" a.actx;
  a.awaiting <- Exec_reply;
  Transport.call cl ?deadline:a.run.enforced ~src:a.coordinator ~dst:prim
    ~bytes:(Config.op_msg_bytes * a.n_ops)
    ~work:(local_work a +. Config.msg_handle_cost)
    ~on_fail:rpc_failed ?ctx:a.span rpc_answered a

and rpc_answered a =
  match a.awaiting with
  | Exec_reply -> exec_reply a
  | Votes -> vote_ok a
  | Acks -> commit_ack a

and rpc_failed a =
  match a.awaiting with
  | Exec_reply -> exec_fail a
  | Votes -> vote_fail a
  | Acks -> commit_ack a

and exec_reply a =
  close_span a;
  record_group a;
  step a a.run.links.(a.group)

and exec_fail a =
  close_span a;
  fail_txn a

(* Abort path for unreachable participants / unavailable partitions:
   give the worker back and let the caller retry. *)
and fail_txn a =
  record_outcome a History.Aborted;
  finish a

and groups_done a =
  let cl = a.run.cl and flavor = a.run.flavor in
  let placement = cl.Cluster.placement in
  (* [Stdlib.max 0.0], compared as floats. *)
  let exec_time = now a -. a.marks.exec_start -. a.phases.remaster in
  a.phases.execution <- (if 0.0 >= exec_time then 0.0 else exec_time);
  match List.sort_uniq Int.compare a.remote_parts with
  | [] ->
      a.single_node <- true;
      if Kvstore.try_commit a.session then (
        record_outcome a History.Committed;
        Transport.replicate_commit cl ?ctx:a.actx a.run.txn.Txn.parts;
        a.committed <- true)
      else record_outcome a History.Aborted;
      finish a
  | remote ->
      a.remote_parts <- remote;
      (* 2PC. Participants are the current primary nodes of the remote
         partitions. *)
      let participants =
        if flavor.unified_commit then
          (* One unified round engages every replica holder of every
             remote partition. *)
          List.concat_map
            (fun part ->
              Placement.primary placement part :: Placement.secondaries placement part)
            remote
          |> List.sort_uniq Int.compare
          |> List.filter (fun n -> n <> a.coordinator)
        else
          List.sort_uniq Int.compare (List.map (Placement.primary placement) remote)
          |> List.filter (fun n -> n <> a.coordinator)
      in
      a.participants <- participants;
      a.marks.round_start <- now a;
      a.span <-
        open_span (engine a) ~node:a.coordinator ~part:(-1)
          ~phase:"prepare" ~name:"2pc-prepare" a.actx;
      (* Presumed abort (§2PC under faults): if any participant stays
         unreachable through the RPC retry schedule, the coordinator
         aborts, tells the reachable participants one-way, and gives the
         attempt up. *)
      match participants with
      | [] -> after_prepare a
      | _ ->
          a.votes <- List.length participants;
          a.awaiting <- Votes;
          send_prepares a ~pctx:a.span
            ~bytes:(Config.op_msg_bytes + Config.record_bytes)
            participants

and send_prepares a ~pctx ~bytes = function
  | [] -> ()
  | node :: rest ->
      Transport.call a.run.cl ?deadline:a.run.enforced ~src:a.coordinator ~dst:node ~bytes
        ~work:Config.msg_handle_cost ~on_fail:rpc_failed ?ctx:pctx rpc_answered a;
      send_prepares a ~pctx ~bytes rest

(* Votes arriving after the round failed are stragglers and ignored. *)
and vote_ok a =
  if not a.vote_failed then (
    a.votes <- a.votes - 1;
    if a.votes = 0 then after_prepare a)

and vote_fail a =
  if (not a.vote_failed) && a.votes > 0 then (
    a.vote_failed <- true;
    prepare_failed a)

(* The coordinator never learned every vote: presumed abort resolves it
   internally, but an external auditor must treat the outcome as
   indeterminate. *)
and prepare_failed a =
  record_outcome a History.Indeterminate;
  close_span a;
  send_oneway a a.participants;
  finish a

and after_prepare a =
  let cl = a.run.cl and unified = a.run.flavor.unified_commit in
  close_span a;
  a.phases.prepare <- now a -. a.marks.round_start;
  (* Participants replicate their prepare logs. *)
  Transport.replicate_commit cl ?ctx:a.actx a.remote_parts;
  if unified && Kvstore.try_commit a.session then (
    (* The unified round already carried the writes and collected
       every replica's vote: validate and install in one pass, send
       the decision one-way. *)
    record_outcome a History.Committed;
    send_oneway a a.participants;
    a.committed <- true;
    finish a)
  else if (not unified) && Kvstore.try_reserve a.session then (
    (* 2PC holds the reservation until the commit round is acked. *)
    a.marks.round_start <- now a;
    a.span <-
      open_span (engine a) ~node:a.coordinator ~part:(-1)
        ~phase:"commit" ~name:"2pc-commit" a.actx;
    match a.participants with
    | [] -> after_commit a
    | participants ->
        a.acks <- List.length participants;
        a.awaiting <- Acks;
        send_commits a ~cctx:a.span participants)
  else (
    (* Validation failed: one-way aborts, no waiting. *)
    record_outcome a History.Aborted;
    send_oneway a a.participants;
    finish a)

(* The decision is already durable: a participant that never
   acknowledges (crashed, partitioned away) learns the outcome on
   recovery, so an exhausted commit RPC counts as delivered. *)
and send_commits a ~cctx = function
  | [] -> ()
  | node :: rest ->
      Transport.call a.run.cl ?deadline:a.run.enforced ~src:a.coordinator ~dst:node
        ~bytes:Config.op_msg_bytes ~work:Config.msg_handle_cost
        ~on_fail:rpc_failed ?ctx:cctx rpc_answered a;
      send_commits a ~cctx rest

and commit_ack a =
  a.acks <- a.acks - 1;
  if a.acks = 0 then after_commit a

and after_commit a =
  close_span a;
  a.phases.commit <- now a -. a.marks.round_start;
  Kvstore.finalize a.session;
  record_outcome a History.Committed;
  Transport.replicate_commit a.run.cl ?ctx:a.actx a.run.txn.Txn.parts;
  a.committed <- true;
  finish a

and finish a =
  Cluster.release_worker a.run.cl ~node:a.coordinator a.lease;
  attempt_over a

(* The attempt is over and its worker released. *)
and attempt_over a =
  let r = a.run in
  let cl = r.cl in
  let cfg = cl.Cluster.cfg in
  if a.committed then (
    (match a.actx with None -> () | Some _ -> Trace.finish ~ts:(now a) a.actx);
    let interval = Config.group_commit_interval in
    let now = now a in
    let wait = interval -. Float.rem now interval in
    let latency = now -. r.start +. wait in
    a.phases.replication <- wait;
    (* Committed but late: it still counts as a commit (throughput)
       while goodput discounts it — the client gave up waiting. *)
    let late = Config.misses_deadline cfg latency in
    let span =
      open_span cl.Cluster.engine ~node:(-1) ~part:(-1) ~phase:"replication"
        ~name:"group-commit-wait" r.octx
    in
    Metrics.defer_commit cl.Cluster.metrics ~delay:wait ~late ~latency
      ~single_node:a.single_node ~remastered:a.remastered ~phases:a.phases ~root:r.octx
      ~span;
    r.on_done ())
  else attempt_failed r a.actx

let run cl ~route ~flavor txn ~on_done =
  let start = Engine.now cl.Cluster.engine in
  let parts = parts_of_ops txn.Txn.ops in
  start_attempt
    {
      cl;
      route;
      flavor;
      txn;
      parts;
      links = group_links parts;
      on_done;
      start;
      octx =
        (match cl.Cluster.tracer with
        | None -> None
        | Some tracer -> Trace.start_txn tracer ~ts:start ~txn_id:txn.Txn.id);
      (* The deadline is the client's patience — always measured when
         set. [enforced] is the protection: only then do RPCs stop
         retransmitting and aborted attempts stop retrying past it.
         Keeping the two apart lets the metastable repro measure goodput
         identically on the unprotected baseline. *)
      enforced =
        (match cl.Cluster.cfg.Config.deadline with
        | Some { Config.after; enforce = true } -> Some (start +. after)
        | _ -> None);
      attempts = 0;
    }
