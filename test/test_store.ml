(* Tests for lion_store: placement invariants, OCC sessions, cluster
   replica operations (remaster / add / remove / cooldown). *)

module Placement = Lion_store.Placement
module Kvstore = Lion_store.Kvstore
module Config = Lion_store.Config
module Cluster = Lion_store.Cluster
module Transport = Lion_store.Transport
module Engine = Lion_sim.Engine

(* --- placement --- *)

let mk ?(nodes = 4) ?(partitions = 8) ?(replicas = 2) ?(max_replicas = 4) () =
  Placement.create ~nodes ~partitions ~replicas ~max_replicas ()

let test_round_robin_layout () =
  let p = mk () in
  for part = 0 to 7 do
    Alcotest.(check int) "primary round robin" (part mod 4) (Placement.primary p part);
    Alcotest.(check (list int))
      "secondary follows"
      [ (part + 1) mod 4 ]
      (Placement.secondaries p part)
  done

let test_replica_counts () =
  let p = mk ~replicas:3 () in
  Alcotest.(check int) "three replicas" 3 (Placement.replica_count p 0)

let test_remaster_swaps () =
  let p = mk () in
  (* Partition 0: primary node 0, secondary node 1. *)
  Placement.remaster p ~part:0 ~node:1;
  Alcotest.(check int) "new primary" 1 (Placement.primary p 0);
  Alcotest.(check bool) "old primary demoted" true (Placement.has_secondary p ~part:0 ~node:0);
  Alcotest.(check int) "replica count unchanged" 2 (Placement.replica_count p 0)

let test_remaster_noop_on_primary () =
  let p = mk () in
  Placement.remaster p ~part:0 ~node:0;
  Alcotest.(check int) "unchanged" 0 (Placement.primary p 0)

let test_remaster_requires_replica () =
  let p = mk () in
  Alcotest.check_raises "no replica"
    (Invalid_argument "Placement.remaster: node 3 holds no replica of partition 0")
    (fun () -> Placement.remaster p ~part:0 ~node:3)

let test_add_secondary () =
  let p = mk () in
  Placement.add_secondary p ~part:0 ~node:2;
  Alcotest.(check bool) "added" true (Placement.has_secondary p ~part:0 ~node:2);
  (* Idempotent on existing replica. *)
  Placement.add_secondary p ~part:0 ~node:2;
  Alcotest.(check int) "no duplicate" 3 (Placement.replica_count p 0)

let test_add_secondary_respects_max () =
  let p = mk ~max_replicas:2 () in
  Alcotest.check_raises "at max"
    (Invalid_argument "Placement.add_secondary: partition 0 already at max replicas")
    (fun () -> Placement.add_secondary p ~part:0 ~node:2)

let test_remove_secondary () =
  let p = mk () in
  Placement.remove_secondary p ~part:0 ~node:1;
  Alcotest.(check int) "one replica left" 1 (Placement.replica_count p 0);
  Alcotest.check_raises "cannot remove primary"
    (Invalid_argument "Placement.remove_secondary: cannot remove the primary") (fun () ->
      Placement.remove_secondary p ~part:0 ~node:0)

let test_best_local_node () =
  let p = mk () in
  (* Partitions 0 and 1: primaries at 0,1; secondaries at 1,2.
     Node 1 holds a replica of both. *)
  Alcotest.(check (option int)) "common node" (Some 1) (Placement.best_local_node p [ 0; 1 ]);
  (* Partitions 0 and 2 share node 0 (primary 0 / primary 2 is node 2,
     secondary of 2 is node 3) — no common node except... 0 has replica
     of 0 only. *)
  Alcotest.(check (option int)) "no common node" None (Placement.best_local_node p [ 0; 2 ])

let test_best_local_prefers_primaries () =
  let p = mk ~nodes:2 ~partitions:2 () in
  (* Both nodes hold replicas of both partitions (2 replicas, 2 nodes).
     Node 0 is primary of partition 0; node 1 of partition 1 — equal
     primary counts, tie goes to the lower id. *)
  Alcotest.(check (option int)) "tie to lower id" (Some 0)
    (Placement.best_local_node p [ 0; 1 ]);
  Placement.remaster p ~part:1 ~node:0;
  Alcotest.(check (option int)) "now node 0 dominates" (Some 0)
    (Placement.best_local_node p [ 0; 1 ])

let test_parts_primary_on () =
  let p = mk () in
  Alcotest.(check (list int)) "node 0's primaries" [ 0; 4 ] (Placement.parts_primary_on p 0)

let test_count_helpers () =
  let p = mk () in
  Alcotest.(check int) "primaries at node 0" 1
    (Placement.count_primaries_at p [ 0; 1; 2 ] ~node:0);
  Alcotest.(check int) "replicas at node 1" 2
    (Placement.count_replicas_at p [ 0; 1; 2 ] ~node:1)

let test_copy_isolated () =
  let p = mk () in
  let q = Placement.copy p in
  Placement.remaster q ~part:0 ~node:1;
  Alcotest.(check int) "original untouched" 0 (Placement.primary p 0);
  Alcotest.(check int) "copy changed" 1 (Placement.primary q 0)

let placement_invariant p =
  let ok = ref true in
  for part = 0 to Placement.partitions p - 1 do
    let prim = Placement.primary p part in
    if Placement.has_secondary p ~part ~node:prim then ok := false;
    if Placement.replica_count p part > Placement.max_replicas p then ok := false
  done;
  !ok

let test_placement_invariant_random_ops =
  QCheck.Test.make ~name:"random replica ops preserve invariants" ~count:100
    QCheck.(list (pair (int_range 0 7) (int_range 0 3)))
    (fun ops ->
      let p = mk () in
      List.iter
        (fun (part, node) ->
          (try Placement.add_secondary p ~part ~node with Invalid_argument _ -> ());
          if Placement.has_replica p ~part ~node then Placement.remaster p ~part ~node)
        ops;
      placement_invariant p)

(* --- kvstore / OCC --- *)

let test_versions_start_at_zero () =
  let s = Kvstore.create () in
  Alcotest.(check int) "fresh key" 0 (Kvstore.version s (Kvstore.key ~part:0 ~slot:42))

let test_commit_bumps_versions () =
  let s = Kvstore.create () in
  let k = Kvstore.key ~part:1 ~slot:2 in
  let session = Kvstore.begin_session s in
  Kvstore.write session k;
  Kvstore.commit_session session;
  Alcotest.(check int) "bumped" 1 (Kvstore.version s k)

let test_validate_detects_conflict () =
  let s = Kvstore.create () in
  let k = Kvstore.key ~part:0 ~slot:0 in
  let t1 = Kvstore.begin_session s in
  Kvstore.read t1 k;
  (* Concurrent writer commits first. *)
  let t2 = Kvstore.begin_session s in
  Kvstore.write t2 k;
  Kvstore.commit_session t2;
  Alcotest.(check bool) "t1 invalid" false (Kvstore.validate t1)

let test_validate_passes_without_conflict () =
  let s = Kvstore.create () in
  let t1 = Kvstore.begin_session s in
  Kvstore.read t1 (Kvstore.key ~part:0 ~slot:0);
  let t2 = Kvstore.begin_session s in
  Kvstore.write t2 (Kvstore.key ~part:0 ~slot:1);
  Kvstore.commit_session t2;
  Alcotest.(check bool) "disjoint keys fine" true (Kvstore.validate t1)

let test_reserve_blocks_concurrent_writers () =
  let s = Kvstore.create () in
  let k = Kvstore.key ~part:0 ~slot:7 in
  let t1 = Kvstore.begin_session s in
  Kvstore.write t1 k;
  let t2 = Kvstore.begin_session s in
  Kvstore.write t2 k;
  Alcotest.(check bool) "t1 reserves" true (Kvstore.try_reserve t1);
  Alcotest.(check bool) "t2 blocked by pending" false (Kvstore.try_reserve t2);
  Kvstore.finalize t1;
  Alcotest.(check bool) "t2 still stale (version moved)" false (Kvstore.try_reserve t2)

let test_release_reservation_unblocks () =
  let s = Kvstore.create () in
  let k = Kvstore.key ~part:0 ~slot:9 in
  let t1 = Kvstore.begin_session s in
  Kvstore.write t1 k;
  Alcotest.(check bool) "reserved" true (Kvstore.try_reserve t1);
  Kvstore.release_reservation t1;
  let t2 = Kvstore.begin_session s in
  Kvstore.write t2 k;
  Alcotest.(check bool) "t2 proceeds after release" true (Kvstore.try_reserve t2)

let test_reader_blocked_by_pending_write () =
  let s = Kvstore.create () in
  let k = Kvstore.key ~part:2 ~slot:3 in
  let writer = Kvstore.begin_session s in
  Kvstore.write writer k;
  Alcotest.(check bool) "writer reserves" true (Kvstore.try_reserve writer);
  let reader = Kvstore.begin_session s in
  Kvstore.read reader k;
  Alcotest.(check bool) "reader sees pending" false (Kvstore.try_reserve reader)

let test_write_is_rmw () =
  let s = Kvstore.create () in
  let k = Kvstore.key ~part:0 ~slot:1 in
  let t1 = Kvstore.begin_session s in
  Kvstore.write t1 k;
  (* Another transaction commits a write to the same key. *)
  let t2 = Kvstore.begin_session s in
  Kvstore.write t2 k;
  Kvstore.commit_session t2;
  (* t1's RMW semantics mean its write must now fail validation. *)
  Alcotest.(check bool) "lost update prevented" false (Kvstore.try_reserve t1)

let test_read_write_sets () =
  let s = Kvstore.create () in
  let t = Kvstore.begin_session s in
  let k1 = Kvstore.key ~part:0 ~slot:1 and k2 = Kvstore.key ~part:0 ~slot:2 in
  Kvstore.read t k1;
  Kvstore.write t k2;
  Alcotest.(check int) "reads include writes (RMW)" 2 (List.length (Kvstore.read_set t));
  Alcotest.(check int) "one write" 1 (List.length (Kvstore.write_set t))

let test_touched_keys_sparse () =
  let s = Kvstore.create () in
  let t = Kvstore.begin_session s in
  Kvstore.write t (Kvstore.key ~part:999 ~slot:123_456_789);
  Kvstore.commit_session t;
  Alcotest.(check int) "only touched keys stored" 1 (Kvstore.touched_keys s)

let test_occ_serializability_property =
  (* For any interleaving of two-key transactions where each validates
     through try_reserve before finalize, committed effects must equal
     some serial order — approximated here by checking version counts
     equal the number of successful commits per key. *)
  QCheck.Test.make ~name:"reserve/finalize installs each commit exactly once" ~count:50
    QCheck.(list (pair (int_range 0 3) bool))
    (fun txns ->
      let s = Kvstore.create () in
      let commits = Hashtbl.create 8 in
      List.iter
        (fun (slot, do_commit) ->
          let k = Kvstore.key ~part:0 ~slot in
          let t = Kvstore.begin_session s in
          Kvstore.write t k;
          if Kvstore.try_reserve t then
            if do_commit then (
              Kvstore.finalize t;
              Hashtbl.replace commits slot
                (1 + Option.value ~default:0 (Hashtbl.find_opt commits slot)))
            else Kvstore.release_reservation t)
        txns;
      Hashtbl.fold
        (fun slot n acc -> acc && Kvstore.version s (Kvstore.key ~part:0 ~slot) = n)
        commits true)

(* A reference model of the store: versions and pending marks in
   polymorphic hashtables keyed by (part, slot), sessions as plain
   lists, following the documented semantics. Random interleavings over
   [model_sessions] live sessions touch hot keys (conflicts), fresh
   stock and TPC-C order slots (≥ 10,000,000), slots anywhere below
   2^32 and the packing's boundary keys, so the table grows from its
   initial size several times. *)
type model_session = {
  real : Kvstore.session;
  sid : int;
  mutable m_reads : ((int * int) * int) list;
  mutable m_writes : (int * int) list;
}

let model_sessions = 4
let model_ops = 400_000
let boundary_keys = [| (0, 0); (0, (1 lsl 32) - 1); ((1 lsl 30) - 1, 0); ((1 lsl 30) - 1, (1 lsl 32) - 1) |]

let prop_kvstore_matches_model =
  QCheck.Test.make ~name:"kvstore agrees with a Hashtbl model" ~count:3 QCheck.small_nat
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let store = Kvstore.create () in
      let versions = Hashtbl.create 1024 and pending = Hashtbl.create 64 in
      let mversion k = Option.value ~default:0 (Hashtbl.find_opt versions k) in
      let check what expected actual =
        if expected <> actual then
          QCheck.Test.fail_reportf "%s: model %d, store %d" what expected actual
      in
      let real_version (part, slot) = Kvstore.version store (Kvstore.key ~part ~slot) in
      let next_sid = ref 0 in
      let fresh_session () =
        let sid = !next_sid in
        incr next_sid;
        { real = Kvstore.begin_session store; sid; m_reads = []; m_writes = [] }
      in
      let sessions = Array.init model_sessions (fun _ -> fresh_session ()) in
      let fresh = ref 0 in
      let pick_key () =
        let part = Random.State.int rs 48 in
        match Random.State.int rs 8 with
        | 0 | 1 -> (part, Random.State.int rs 64)
        | 2 | 3 ->
            incr fresh;
            (part, 10_000_000 + !fresh)
        | 4 ->
            incr fresh;
            (part, 1_000_000 + !fresh)
        | 5 | 6 -> (part, Random.State.full_int rs (1 lsl 32))
        | _ -> boundary_keys.(Random.State.int rs (Array.length boundary_keys))
      in
      let install s =
        List.iter (fun k -> Hashtbl.replace versions k (mversion k + 1)) s.m_writes
      in
      let release s =
        List.iter
          (fun k -> if Hashtbl.find_opt pending k = Some s.sid then Hashtbl.remove pending k)
          s.m_writes
      in
      let check_writes s =
        List.iter (fun k -> check "installed version" (mversion k) (real_version k)) s.m_writes
      in
      for op = 1 to model_ops do
        let i = Random.State.int rs model_sessions in
        let s = sessions.(i) in
        (match Random.State.int rs 100 with
        | r when r < 30 ->
            let ((part, slot) as k) = pick_key () in
            Kvstore.read s.real (Kvstore.key ~part ~slot);
            s.m_reads <- (k, mversion k) :: s.m_reads
        | r when r < 65 ->
            let ((part, slot) as k) = pick_key () in
            Kvstore.write s.real (Kvstore.key ~part ~slot);
            s.m_reads <- (k, mversion k) :: s.m_reads;
            s.m_writes <- k :: s.m_writes
        | r when r < 77 ->
            let observed =
              List.map
                (fun (k, v) -> ((Kvstore.part k, Kvstore.slot k), v))
                (Kvstore.observed_reads s.real)
            in
            if observed <> List.rev s.m_reads then
              QCheck.Test.fail_report "observed reads differ from the model";
            let unpack k = (Kvstore.part k, Kvstore.slot k) in
            if List.map unpack (Kvstore.read_set s.real) <> List.rev_map fst s.m_reads then
              QCheck.Test.fail_report "read set differs from the model";
            if List.map unpack (Kvstore.write_set s.real) <> List.rev s.m_writes then
              QCheck.Test.fail_report "write set differs from the model";
            let ok =
              List.for_all
                (fun (k, v) ->
                  mversion k = v
                  &&
                  match Hashtbl.find_opt pending k with
                  | Some sid -> sid = s.sid
                  | None -> true)
                s.m_reads
            in
            if ok then List.iter (fun k -> Hashtbl.replace pending k s.sid) s.m_writes;
            if Kvstore.try_reserve s.real <> ok then
              QCheck.Test.fail_reportf "reserve verdict differs at op %d" op
        | r when r < 85 ->
            Kvstore.finalize s.real;
            install s;
            release s;
            check_writes s;
            sessions.(i) <- fresh_session ()
        | r when r < 90 ->
            Kvstore.release_reservation s.real;
            release s
        | r when r < 95 ->
            Kvstore.commit_session s.real;
            install s;
            check_writes s;
            sessions.(i) <- fresh_session ()
        | _ -> sessions.(i) <- fresh_session ());
        if op mod 1000 = 0 then
          check "touched keys" (Hashtbl.length versions) (Kvstore.touched_keys store)
      done;
      Hashtbl.iter (fun k v -> check "final version" v (real_version k)) versions;
      check "touched keys" (Hashtbl.length versions) (Kvstore.touched_keys store);
      if Hashtbl.length versions < 50_000 then
        QCheck.Test.fail_reportf "only %d distinct keys" (Hashtbl.length versions);
      true)

(* Probe hints against a store without them. A read records where its
   probe ended, and validation and install resume there while the
   table's capacity is unchanged. The schedules below drive two stores
   and a reference (a version [Hashtbl] and a pending map) through the
   same operations, over six partitions that start with no table: reads
   before a partition's first write, [Fill]s that grow a table between
   a read and its validation or install, hot slots that sessions write
   again and again, and 2PC-style reserve, finalize and release. A
   [Commit] is [try_commit] on the first store and [try_reserve] then
   [finalize] on the second. Every verdict, version and [touched_keys]
   must agree. *)
type hint_op =
  | H_read of int * int * int  (** session, partition, slot *)
  | H_write of int * int * int
  | H_fill of int * int  (** partition, fresh keys installed by another session *)
  | H_reserve of int
  | H_finalize of int
  | H_release of int
  | H_commit of int

let pp_hint_op = function
  | H_read (s, p, k) -> Printf.sprintf "read s%d P%d/%d" s p k
  | H_write (s, p, k) -> Printf.sprintf "write s%d P%d/%d" s p k
  | H_fill (p, n) -> Printf.sprintf "fill P%d +%d" p n
  | H_reserve s -> Printf.sprintf "reserve s%d" s
  | H_finalize s -> Printf.sprintf "finalize s%d" s
  | H_release s -> Printf.sprintf "release s%d" s
  | H_commit s -> Printf.sprintf "commit s%d" s

let hint_sessions = 3

let gen_hint_op =
  let open QCheck.Gen in
  let sess = int_range 0 (hint_sessions - 1) and part = int_range 0 5 in
  (* Mostly eight hot slots, so writes repeat and sessions conflict. *)
  let slot = frequency [ (4, int_range 0 7); (1, int_range 0 2000) ] in
  frequency
    [
      (6, map3 (fun s p k -> H_read (s, p, k)) sess part slot);
      (6, map3 (fun s p k -> H_write (s, p, k)) sess part slot);
      (2, map2 (fun p n -> H_fill (p, n)) part (int_range 1 40));
      (2, map (fun s -> H_reserve s) sess);
      (2, map (fun s -> H_finalize s) sess);
      (1, map (fun s -> H_release s) sess);
      (3, map (fun s -> H_commit s) sess);
    ]

type hint_ref_session = {
  mutable r_reads : (int * int) list;  (** (key, observed version), newest first *)
  mutable r_writes : int list;  (** newest first *)
  mutable reserved : bool;
  r_sid : int;
}

let prop_hints_match_reference =
  QCheck.Test.make ~name:"hinted store agrees with a hint-free reference" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_hint_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 300) gen_hint_op))
    (fun ops ->
      let a = Kvstore.create () and b = Kvstore.create () in
      let versions = Hashtbl.create 64 and pending = Hashtbl.create 16 in
      let rversion k = Option.value ~default:0 (Hashtbl.find_opt versions k) in
      let next_sid = ref 0 and fresh = ref 0 in
      let new_ref () =
        incr next_sid;
        { r_reads = []; r_writes = []; reserved = false; r_sid = !next_sid }
      in
      let sa = Array.init hint_sessions (fun _ -> Kvstore.begin_session a)
      and sb = Array.init hint_sessions (fun _ -> Kvstore.begin_session b)
      and sr = Array.init hint_sessions (fun _ -> new_ref ()) in
      let restart i =
        sa.(i) <- Kvstore.begin_session a;
        sb.(i) <- Kvstore.begin_session b;
        sr.(i) <- new_ref ()
      in
      let key p k = Kvstore.key ~part:p ~slot:k in
      let r_reservable r =
        List.for_all
          (fun (k, v) ->
            rversion k = v
            && match Hashtbl.find_opt pending k with None -> true | Some sid -> sid = r.r_sid)
          r.r_reads
      in
      let r_install r =
        List.iter (fun k -> Hashtbl.replace versions k (rversion k + 1)) (List.rev r.r_writes)
      in
      let r_release r =
        List.iter
          (fun k -> if Hashtbl.find_opt pending k = Some r.r_sid then Hashtbl.remove pending k)
          r.r_writes
      in
      let agree what ra rb rr =
        if ra <> rr || rb <> rr then
          QCheck.Test.fail_reportf "%s: reference %b, try_commit store %b, reserve store %b"
            what rr ra rb
      in
      let check_store () =
        Hashtbl.iter
          (fun k v ->
            let k' = Kvstore.key_of_int k in
            if Kvstore.version a k' <> v || Kvstore.version b k' <> v then
              QCheck.Test.fail_reportf "version of %d: reference %d, stores %d and %d" k v
                (Kvstore.version a k') (Kvstore.version b k'))
          versions;
        let n = Hashtbl.length versions in
        if Kvstore.touched_keys a <> n || Kvstore.touched_keys b <> n then
          QCheck.Test.fail_reportf "touched keys: reference %d, stores %d and %d" n
            (Kvstore.touched_keys a) (Kvstore.touched_keys b)
      in
      let record i p k ~write =
        let k' = key p k in
        let r = sr.(i) in
        if write then (
          Kvstore.write sa.(i) k';
          Kvstore.write sb.(i) k';
          r.r_writes <- (k' :> int) :: r.r_writes)
        else (
          Kvstore.read sa.(i) k';
          Kvstore.read sb.(i) k');
        r.r_reads <- ((k' :> int), rversion (k' :> int)) :: r.r_reads
      in
      let finalize i =
        Kvstore.finalize sa.(i);
        Kvstore.finalize sb.(i);
        r_install sr.(i);
        r_release sr.(i);
        restart i
      in
      List.iter
        (fun op ->
          (match op with
          | H_read (i, p, k) -> record i p k ~write:false
          | H_write (i, p, k) -> record i p k ~write:true
          | H_fill (p, n) ->
              let fa = Kvstore.begin_session a and fb = Kvstore.begin_session b in
              for _ = 1 to n do
                incr fresh;
                let k' = key p (100_000 + !fresh) in
                Kvstore.write fa k';
                Kvstore.write fb k';
                Hashtbl.replace versions (k' :> int) (rversion (k' :> int) + 1)
              done;
              Kvstore.commit_session fa;
              Kvstore.commit_session fb
          | H_reserve i ->
              let r = sr.(i) in
              let ok = r_reservable r in
              if ok then (
                List.iter (fun k -> Hashtbl.replace pending k r.r_sid) r.r_writes;
                r.reserved <- true);
              agree "reserve" (Kvstore.try_reserve sa.(i)) (Kvstore.try_reserve sb.(i)) ok
          | H_finalize i -> if sr.(i).reserved then finalize i
          | H_release i ->
              if sr.(i).reserved then (
                Kvstore.release_reservation sa.(i);
                Kvstore.release_reservation sb.(i);
                r_release sr.(i);
                restart i)
          | H_commit i ->
              (* [try_commit] is for a session holding no reservation. *)
              if sr.(i).reserved then finalize i
              else
                let r = sr.(i) in
                let ok = r_reservable r in
                if ok then r_install r;
                let wa = Kvstore.try_commit sa.(i) in
                let wb = Kvstore.try_reserve sb.(i) && (Kvstore.finalize sb.(i); true) in
                agree "commit" wa wb ok;
                restart i);
          check_store ())
        ops;
      true)

(* Sessions far longer than the flat arrays' initial capacity (16
   operations by default) must grow without losing or reordering anything:
   every accessor returns what the list representation did, in access
   order, and committing installs one version bump per recorded
   write. *)
let prop_long_sessions_keep_access_order =
  QCheck.Test.make ~name:"long sessions keep access order" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 120) (triple (int_range 0 5) (int_range 0 30) bool))
    (fun ops ->
      let store = Kvstore.create () in
      (* Prior commits give the keys distinct versions to observe. *)
      let warm = Kvstore.begin_session store in
      List.iteri
        (fun i (part, slot, _) ->
          if i mod 3 = 0 then Kvstore.write warm (Kvstore.key ~part ~slot))
        ops;
      Kvstore.commit_session warm;
      let s = Kvstore.begin_session store in
      let reads = ref [] and writes = ref [] in
      List.iter
        (fun (part, slot, w) ->
          let k = Kvstore.key ~part ~slot in
          reads := (k, Kvstore.version store k) :: !reads;
          if w then (
            writes := k :: !writes;
            Kvstore.write s k)
          else Kvstore.read s k)
        ops;
      let reads = List.rev !reads and writes = List.rev !writes in
      let before = List.map (fun k -> Kvstore.version store k) writes in
      let ok =
        Kvstore.observed_reads s = reads
        && Kvstore.read_set s = List.map fst reads
        && Kvstore.write_set s = writes
        && Kvstore.write_count s = List.length writes
        && Kvstore.validate s
        && Kvstore.try_reserve s
      in
      Kvstore.finalize s;
      let bumps k = List.length (List.filter (fun k' -> k' = k) writes) in
      ok
      && List.for_all2
           (fun k v -> Kvstore.version store k = v + bumps k)
           writes before)

(* A key the packed representation cannot hold must be refused, not
   folded onto a neighbour: slot 2^32 of partition 0 would otherwise
   alias slot 0 of partition 1. *)
let test_kvstore_rejects_unpackable_keys () =
  let s = Kvstore.create () in
  let w = Kvstore.begin_session s in
  Kvstore.write w (Kvstore.key ~part:1 ~slot:0);
  Kvstore.commit_session w;
  List.iter
    (fun (part, slot) ->
      let k = Kvstore.key ~part ~slot in
      let refused f =
        match f () with
        | () -> Alcotest.failf "key P%d/%d accepted" part slot
        | exception Invalid_argument _ -> ()
      in
      refused (fun () -> ignore (Kvstore.version s k));
      refused (fun () -> Kvstore.read (Kvstore.begin_session s) k);
      refused (fun () -> Kvstore.write (Kvstore.begin_session s) k))
    [ (0, 1 lsl 32); (0, -1); (-1, 0); (1 lsl 30, 0); (0, max_int); (max_int, 0) ];
  Alcotest.(check int) "neighbour untouched" 1 (Kvstore.version s (Kvstore.key ~part:1 ~slot:0))

(* The edges of the packable range: partition 2^30 - 1, slot 2^32 - 1. *)
let max_part = (1 lsl 30) - 1
let max_slot = (1 lsl 32) - 1

(* A field value biased towards its range edges. *)
let field_gen bound = QCheck.Gen.(oneof [ oneofl [ 0; 1; bound - 1; bound ]; int_range 0 bound ])

let prop_key_roundtrip =
  QCheck.Test.make ~name:"packed key round-trips (part, slot)" ~count:1000
    QCheck.(make Gen.(pair (field_gen max_part) (field_gen max_slot)))
    (fun (part, slot) ->
      let k = Kvstore.key ~part ~slot in
      (k :> int) >= 0 && Kvstore.part k = part && Kvstore.slot k = slot)

let prop_key_order =
  QCheck.Test.make ~name:"packed key order is (part, slot) order" ~count:1000
    QCheck.(
      make
        Gen.(
          pair
            (pair (field_gen max_part) (field_gen max_slot))
            (pair (field_gen max_part) (field_gen max_slot))))
    (fun (((p1, s1) as a), ((p2, s2) as b)) ->
      let sign c = Stdlib.compare c 0 in
      sign (Kvstore.key_compare (Kvstore.key ~part:p1 ~slot:s1) (Kvstore.key ~part:p2 ~slot:s2))
      = sign (Stdlib.compare a b))

let test_kvstore_edge_key_usable () =
  let k = Kvstore.key ~part:max_part ~slot:max_slot in
  Alcotest.(check int) "packs to max_int" max_int (k :> int);
  let s = Kvstore.create () in
  let w = Kvstore.begin_session s in
  Kvstore.write w k;
  Kvstore.commit_session w;
  Alcotest.(check int) "edge key versioned" 1 (Kvstore.version s k);
  Alcotest.(check int) "origin untouched" 0 (Kvstore.version s (Kvstore.key ~part:0 ~slot:0))

(* Versions live in one table per partition, each cell packing a slot
   and its version into one int. The tests below pin the packing's edges
   and the tables' independence. *)
let install store keys =
  let w = Kvstore.begin_session store in
  List.iter (Kvstore.write w) keys;
  Kvstore.commit_session w

let test_packed_cells_keep_slot_edges () =
  let s = Kvstore.create () in
  let lo = Kvstore.key ~part:5 ~slot:0 and hi = Kvstore.key ~part:5 ~slot:max_slot in
  (* Fillers in the same partition grow its table several times while
     the two edge slots are bumped. *)
  for i = 1 to 3000 do
    install s ((if i mod 3 = 0 then [ hi ] else [ lo ]) @ [ Kvstore.key ~part:5 ~slot:(7 * i) ])
  done;
  Alcotest.(check int) "slot 0" 2000 (Kvstore.version s lo);
  Alcotest.(check int) "slot 2^32-1" 1000 (Kvstore.version s hi);
  Alcotest.(check int) "filler" 1 (Kvstore.version s (Kvstore.key ~part:5 ~slot:21));
  Alcotest.(check int) "unwritten slot 1" 0 (Kvstore.version s (Kvstore.key ~part:5 ~slot:1));
  Alcotest.(check int) "same slots, other partition" 0
    (Kvstore.version s (Kvstore.key ~part:4 ~slot:max_slot))

let test_partition_tables_independent () =
  let s = Kvstore.create () in
  let keys = List.init 8 (fun part -> List.init 50 (fun i -> Kvstore.key ~part ~slot:(i * i))) in
  List.iteri (fun part ks -> for _ = 0 to part do install s ks done) keys;
  let versions () = List.map (List.map (Kvstore.version s)) keys in
  let before = versions () and touched = Kvstore.touched_keys s in
  Alcotest.(check int) "touched before" 400 touched;
  (* Partition 3's table grows from a few cells to over 100k. *)
  for slot = 1_000_000 to 1_099_999 do
    install s [ Kvstore.key ~part:3 ~slot ]
  done;
  Alcotest.(check (list (list int))) "every version unchanged" before (versions ());
  Alcotest.(check int) "touched grows by the new keys only" (touched + 100_000)
    (Kvstore.touched_keys s)

let test_last_partition_like_first () =
  (* The same sessions on partition 0 and on partition 2^30-1, in two
     stores, give the same versions and verdicts. *)
  let run part =
    let s = Kvstore.create () in
    let k slot = Kvstore.key ~part ~slot in
    let verdicts = ref [] in
    for i = 0 to 999 do
      let a = Kvstore.begin_session s and b = Kvstore.begin_session s in
      Kvstore.write a (k (i mod 7));
      Kvstore.read a (k max_slot);
      Kvstore.write b (k (i mod 5));
      if i mod 11 = 0 then Kvstore.write b (k max_slot);
      let ra = Kvstore.try_reserve a in
      let rb = Kvstore.try_reserve b in
      if ra then Kvstore.finalize a;
      if rb then if i mod 2 = 0 then Kvstore.finalize b else Kvstore.release_reservation b;
      verdicts := (ra, rb) :: !verdicts
    done;
    let versions = List.map (fun slot -> Kvstore.version s (k slot)) [ 0; 1; 2; 3; 4; 5; 6; max_slot ] in
    (!verdicts, versions, Kvstore.touched_keys s)
  in
  let v0, versions0, touched0 = run 0 and v1, versions1, touched1 = run max_part in
  Alcotest.(check (list (pair bool bool))) "same verdicts" v0 v1;
  Alcotest.(check (list int)) "same versions" versions0 versions1;
  Alcotest.(check int) "same touched keys" touched0 touched1;
  Alcotest.(check bool) "slot 0 was bumped" true (List.hd versions0 > 0);
  Alcotest.(check bool) "some reservations conflict" true (List.exists (fun (_, rb) -> not rb) v0)

(* --- cluster --- *)

let mk_cluster ?(cfg = Config.default) () = Cluster.create ~seed:5 cfg

let remasters_done cl = Lion_sim.Metrics.count cl.Cluster.metrics Remaster_complete

let test_cluster_shape () =
  let cl = mk_cluster () in
  Alcotest.(check int) "nodes" 4 (Cluster.node_count cl);
  Alcotest.(check int) "partitions" 48 (Cluster.partition_count cl)

let test_remaster_blocks_partition () =
  let cl = mk_cluster () in
  let part = 0 in
  let target = Placement.secondaries cl.Cluster.placement part |> List.hd in
  Alcotest.(check bool) "starts" true (Cluster.try_begin_remaster cl ~part ~node:target);
  Alcotest.(check bool) "partition blocked" true (Cluster.partition_wait cl part > 0.0);
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check int) "primary moved" target (Placement.primary cl.Cluster.placement part);
  Alcotest.(check int) "counted" 1 (remasters_done cl)

let test_remaster_conflict_refused () =
  let cl = mk_cluster () in
  let part = 0 in
  let target = Placement.secondaries cl.Cluster.placement part |> List.hd in
  Alcotest.(check bool) "first wins" true (Cluster.try_begin_remaster cl ~part ~node:target);
  Alcotest.(check bool) "second loses (inflight)" false
    (Cluster.try_begin_remaster cl ~part ~node:target)

let test_remaster_cooldown () =
  let cl = mk_cluster () in
  let part = 0 in
  let target = Placement.secondaries cl.Cluster.placement part |> List.hd in
  ignore (Cluster.try_begin_remaster cl ~part ~node:target);
  Engine.run_all cl.Cluster.engine ();
  (* Immediately flipping back must be refused during the cooldown. *)
  Alcotest.(check bool) "cooldown refuses flip-back" false
    (Cluster.try_begin_remaster cl ~part ~node:0);
  (* After the cooldown it is allowed again. *)
  Engine.run_until cl.Cluster.engine
    (Engine.now cl.Cluster.engine +. Config.default.Config.remaster_cooldown +. 1.0);
  Alcotest.(check bool) "allowed after cooldown" true
    (Cluster.try_begin_remaster cl ~part ~node:0)

let test_remaster_without_replica_refused () =
  let cl = mk_cluster () in
  (* Node 3 holds no replica of partition 0 (primary 0, secondary 1). *)
  Alcotest.(check bool) "refused" false (Cluster.try_begin_remaster cl ~part:0 ~node:3)

let test_add_replica_background () =
  let cl = mk_cluster () in
  let ready = ref false in
  Cluster.add_replica cl ~part:0 ~node:3 ~on_ready:(fun () -> ready := true);
  Alcotest.(check bool) "not yet" false
    (Placement.has_secondary cl.Cluster.placement ~part:0 ~node:3);
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check bool) "installed" true
    (Placement.has_secondary cl.Cluster.placement ~part:0 ~node:3);
  Alcotest.(check bool) "callback fired" true !ready

let test_add_replica_idempotent () =
  let cl = mk_cluster () in
  let fired = ref 0 in
  (* Node 1 already has a secondary of partition 0. *)
  Cluster.add_replica cl ~part:0 ~node:1 ~on_ready:(fun () -> incr fired);
  Alcotest.(check int) "immediate" 1 !fired;
  Alcotest.(check int) "no migration" 0 cl.Cluster.migration_count

let test_add_replica_evicts_at_max () =
  let cfg = { Config.default with Config.max_replicas = 2 } in
  let cl = mk_cluster ~cfg () in
  (* Partition 0 already has 2 replicas (nodes 0, 1); adding on node 2
     must evict the node-1 secondary. *)
  Cluster.add_replica cl ~part:0 ~node:2 ~on_ready:(fun () -> ());
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check int) "still at max" 2 (Placement.replica_count cl.Cluster.placement 0);
  Alcotest.(check bool) "new replica present" true
    (Placement.has_secondary cl.Cluster.placement ~part:0 ~node:2)

let test_access_frequency_tracking () =
  let cl = mk_cluster () in
  for _ = 1 to 10 do
    Cluster.touch_partition cl 0
  done;
  Cluster.touch_partition cl 1;
  Alcotest.(check (float 1e-9)) "hottest is 1.0" 1.0 (Cluster.normalized_freq cl 0);
  Alcotest.(check (float 1e-9)) "colder fraction" 0.1 (Cluster.normalized_freq cl 1);
  Cluster.decay_access cl 0.5;
  Alcotest.(check (float 1e-9)) "decay preserves ratio" 0.1 (Cluster.normalized_freq cl 1)

let test_rpc_consumes_remote_service () =
  let cl = mk_cluster () in
  let finished = ref (-1.0) in
  Transport.call cl ~src:0 ~dst:1 ~bytes:128 ~work:10.0
    (fun () -> finished := Engine.now cl.Cluster.engine)
    ();
  Engine.run_all cl.Cluster.engine ();
  (* 2 one-way trips + 10 µs service, with the default 60 µs latency. *)
  Alcotest.(check bool) "took at least 2 RT + work" true (!finished >= 130.0);
  Alcotest.(check bool) "remote service busy time" true
    (Float.abs (Lion_sim.Server.busy_time cl.Cluster.services.(1) -. 10.0) < 1e-6)

let test_replicate_commit_charges_bytes () =
  let cl = mk_cluster () in
  Transport.replicate_commit cl [ 0; 1 ];
  Alcotest.(check bool) "bytes charged" true
    (Lion_sim.Network.total_bytes cl.Cluster.network > 0)

(* --- placement stats --- *)

module Placement_stats = Lion_store.Placement_stats

let test_stats_pp_renders () =
  let p = mk ~partitions:3 () in
  let s = Format.asprintf "%a" Placement_stats.pp p in
  Alcotest.(check bool) "lists primaries" true
    (let contains hay needle =
       let n = String.length needle in
       let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
       go 0
     in
     contains s "N0: P0*" && contains s "N1:")

let test_stats_counts () =
  let p = mk () in
  Alcotest.(check (array int)) "primaries per node" [| 2; 2; 2; 2 |]
    (Placement_stats.primaries_per_node p);
  Alcotest.(check (array int)) "replicas per node" [| 4; 4; 4; 4 |]
    (Placement_stats.replicas_per_node p);
  Alcotest.(check (float 1e-9)) "balanced layout" 1.0 (Placement_stats.imbalance p)

let test_stats_imbalance_after_remaster () =
  let p = mk () in
  Placement.remaster p ~part:1 ~node:2;
  (* Node 2 now has 3 primaries over a mean of 2. *)
  Alcotest.(check (float 1e-9)) "max/mean" 1.5 (Placement_stats.imbalance p)

let test_stats_coverage_and_colocation () =
  let p = mk () in
  (* Pair (0,1): node 1 holds a replica of both (covered), but the
     primaries live on nodes 0 and 1 (not colocated). *)
  Alcotest.(check (float 1e-9)) "covered" 1.0 (Placement_stats.coverage p [ [ 0; 1 ] ]);
  Alcotest.(check (float 1e-9)) "not colocated" 0.0
    (Placement_stats.colocated p [ [ 0; 1 ] ]);
  Placement.remaster p ~part:0 ~node:1;
  Alcotest.(check (float 1e-9)) "colocated after remaster" 1.0
    (Placement_stats.colocated p [ [ 0; 1 ] ]);
  (* Pair (0,2) has no common node in the default layout. *)
  Alcotest.(check (float 1e-9)) "half covered" 0.5
    (Placement_stats.coverage p [ [ 0; 1 ]; [ 0; 2 ] ])

(* --- replication log --- *)

module Replication = Lion_store.Replication

let test_replication_appends_counted () =
  let e = Engine.create () in
  let r = Replication.create ~interval:10_000.0 ~partitions:4 ~slots:4 e in
  Replication.append r ~part:0;
  Replication.append r ~part:0;
  Replication.append r ~part:1;
  Alcotest.(check int) "per-partition" 2 (Replication.appends r ~part:0);
  Alcotest.(check int) "other partition" 1 (Replication.appends r ~part:1);
  Alcotest.(check int) "grand total" 3 (Replication.total_appends r)

let test_replication_lag_window () =
  let e = Engine.create () in
  let r = Replication.create ~interval:10_000.0 ~partitions:2 ~slots:4 e in
  Replication.append r ~part:0;
  (* Within the sync window: still lagging. *)
  Alcotest.(check int) "fresh record lags" 1 (Replication.lag r ~part:0);
  (* Move past the sync delay: secondaries have acknowledged. *)
  Engine.run_until e (Replication.sync_delay r +. 20_000.0);
  Alcotest.(check int) "acked after delay" 0 (Replication.lag r ~part:0);
  Alcotest.(check int) "history retained" 1 (Replication.appends r ~part:0)

(* The durable watermark has a row only for replicas that were seeded
   or received a full-state transfer; [durable] reads 0 both for "no
   row" and for a row at 0, so the row's existence shows in whether a
   later fresh stream can advance it. *)
let test_replication_durable_rows () =
  let e = Engine.create () in
  (* 4 member nodes plus 2 standby slots, as [Config.total_slots]. *)
  let r = Replication.create ~interval:10_000.0 ~partitions:3 ~slots:6 e in
  let ack ?(stale = false) ~part ~node upto =
    Replication.ack_stream r ~part ~node ~upto ~stale ~reject:false
  in
  let wm what ~part ~node expect_applied expect_durable =
    Alcotest.(check int) (what ^ ": applied") expect_applied (Replication.applied r ~part ~node);
    Alcotest.(check int) (what ^ ": durable") expect_durable (Replication.durable r ~part ~node)
  in
  (* A stream never creates a row. *)
  ack ~part:0 ~node:1 5;
  wm "stream without row" ~part:0 ~node:1 5 0;
  ack ~part:0 ~node:1 7;
  wm "still no row" ~part:0 ~node:1 7 0;
  (* Seeding does; a fresh stream then advances it, a stale one not. *)
  Replication.seed_replica r ~part:0 ~node:2;
  wm "seeded" ~part:0 ~node:2 0 0;
  ack ~part:0 ~node:2 4;
  wm "fresh stream on row" ~part:0 ~node:2 4 4;
  ack ~stale:true ~part:0 ~node:2 9;
  wm "stale stream" ~part:0 ~node:2 9 4;
  Replication.seed_replica r ~part:0 ~node:2;
  wm "reseeding keeps the row" ~part:0 ~node:2 9 4;
  (* A rejected stale stream changes nothing. *)
  Replication.ack_stream r ~part:0 ~node:2 ~upto:12 ~stale:true ~reject:true;
  wm "rejected stream" ~part:0 ~node:2 9 4;
  (* A full-state transfer creates a row, or raises the existing one
     even behind the believed watermark, and never lowers either. *)
  Replication.set_applied r ~part:0 ~node:1 ~upto:3;
  wm "transfer creates row" ~part:0 ~node:1 7 3;
  ack ~part:0 ~node:1 8;
  wm "row now advances" ~part:0 ~node:1 8 8;
  Replication.set_applied r ~part:0 ~node:2 ~upto:6;
  wm "transfer raises row" ~part:0 ~node:2 9 6;
  Replication.set_applied r ~part:0 ~node:2 ~upto:2;
  wm "lower transfer ignored" ~part:0 ~node:2 9 6;
  (* Forgetting clears both tables: the row is gone too. *)
  Replication.forget_applied r ~part:0 ~node:2;
  wm "forgotten" ~part:0 ~node:2 0 0;
  ack ~part:0 ~node:2 11;
  wm "no row after forget" ~part:0 ~node:2 11 0;
  (* Standby slots index their own cells: node 5 of partition 1 is not
     node 1 or 3 of partition 2, whatever stride a 4-node table had. *)
  Replication.set_applied r ~part:1 ~node:5 ~upto:13;
  wm "standby slot" ~part:1 ~node:5 13 13;
  List.iter
    (fun (part, node) -> wm "neighbour untouched" ~part ~node 0 0)
    [ (1, 4); (2, 0); (2, 1); (2, 3) ];
  Alcotest.check_raises "slot past capacity"
    (Invalid_argument "Replication: node 6 outside 6 slots") (fun () ->
      ignore (Replication.applied r ~part:0 ~node:6))

let test_cluster_watermarks_span_standby_slots () =
  let cfg = Config.with_elastic_defaults Config.default in
  let cl = Cluster.create ~seed:5 cfg in
  let repl = cl.Cluster.replication in
  let last = Config.total_partitions cfg - 1 and standby = Config.total_slots cfg - 1 in
  Alcotest.(check bool) "has standby slots" true (standby >= cfg.Config.nodes);
  Replication.set_applied repl ~part:last ~node:standby ~upto:2;
  Alcotest.(check int) "standby durable" 2 (Replication.durable repl ~part:last ~node:standby)

let test_commit_feeds_replication_log () =
  let cl = mk_cluster () in
  Transport.replicate_commit cl [ 3; 7 ];
  Alcotest.(check int) "log grew" 1 (Replication.appends cl.Cluster.replication ~part:3);
  Alcotest.(check int) "both partitions" 1 (Replication.appends cl.Cluster.replication ~part:7)

let test_remaster_bytes_scale_with_lag () =
  let cl = mk_cluster () in
  let bytes_before = Lion_sim.Network.total_bytes cl.Cluster.network in
  (* Build up lag on partition 0, then remaster it. *)
  for _ = 1 to 100 do
    Transport.replicate_commit cl [ 0 ]
  done;
  let after_replication = Lion_sim.Network.total_bytes cl.Cluster.network in
  let target = Placement.secondaries cl.Cluster.placement 0 |> List.hd in
  ignore (Cluster.try_begin_remaster cl ~part:0 ~node:target);
  let after_remaster = Lion_sim.Network.total_bytes cl.Cluster.network in
  let log_bytes = after_remaster - after_replication in
  Alcotest.(check bool) "replication charged" true (after_replication > bytes_before);
  (* 100 lagging records x 64 bytes. *)
  Alcotest.(check int) "lag shipped" (100 * 64) log_bytes

(* --- failure / recovery --- *)

let test_fail_node_drops_secondaries () =
  let cl = mk_cluster () in
  (* Node 1 holds the secondary of partition 0. *)
  Cluster.fail_node cl 1;
  Alcotest.(check bool) "dead" false (Cluster.alive cl 1);
  Alcotest.(check (list int)) "secondary dropped" [] (Placement.secondaries cl.Cluster.placement 0);
  Alcotest.(check (list int)) "three survivors" [ 0; 2; 3 ] (Cluster.alive_nodes cl)

let test_fail_node_promotes_survivor () =
  let cl = mk_cluster () in
  (* Partition 1: primary node 1, secondary node 2. *)
  Cluster.fail_node cl 1;
  Alcotest.(check bool) "blocked during election" true (Cluster.partition_wait cl 1 > 0.0);
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  Alcotest.(check int) "survivor promoted" 2 (Placement.primary cl.Cluster.placement 1);
  Alcotest.(check (float 1e-9)) "available again" 0.0 (Cluster.partition_wait cl 1)

let test_fail_node_idempotent () =
  let cl = mk_cluster () in
  Cluster.fail_node cl 1;
  Cluster.fail_node cl 1;
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  Alcotest.(check bool) "still consistent" true
    (Placement.primary cl.Cluster.placement 1 <> 1)

let test_orphaned_partition_blocks_until_recovery () =
  let cfg = { Config.default with Config.replicas = 1 } in
  let cl = Cluster.create ~seed:5 cfg in
  (* Single replica: partition 1's only copy is on node 1. *)
  Cluster.fail_node cl 1;
  Alcotest.(check bool) "unavailable" true (Cluster.partition_wait cl 1 = infinity);
  Cluster.recover_node cl 1;
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  Alcotest.(check bool) "available after recovery" true
    (Cluster.partition_wait cl 1 < infinity);
  Alcotest.(check int) "primary unchanged" 1 (Placement.primary cl.Cluster.placement 1)

let test_lion_survives_failover () =
  let cl = mk_cluster () in
  let proto = Lion_core.Standard.create ~seed:2 cl in
  let engine = cl.Cluster.engine in
  let gen =
    Lion_workload.Ycsb.create
      {
        (Lion_workload.Ycsb.default_params
           ~partitions:(Cluster.partition_count cl)
           ~nodes:(Cluster.node_count cl))
        with
        Lion_workload.Ycsb.cross_ratio = 0.5;
      }
  in
  let rec loop () =
    proto.Lion_protocols.Proto.submit (Lion_workload.Ycsb.next gen) ~on_done:(fun () ->
        Engine.schedule engine ~delay:0.0 loop)
  in
  for _ = 1 to 32 do
    loop ()
  done;
  Engine.at engine ~time:(Engine.seconds 0.5) (fun () -> Cluster.fail_node cl 2);
  Engine.run_until engine (Engine.seconds 2.0);
  let commits_at_1s = Lion_sim.Metrics.count cl.Cluster.metrics Commits in
  Engine.run_until engine (Engine.seconds 3.0);
  let commits_at_2s = Lion_sim.Metrics.count cl.Cluster.metrics Commits in
  Alcotest.(check bool) "commits continue after failure" true
    (commits_at_2s > commits_at_1s);
  (* Nothing is mastered on the dead node. *)
  Alcotest.(check (list int)) "no primaries on dead node" []
    (Placement.parts_primary_on cl.Cluster.placement 2)

(* --- RPC timeouts, retries and chaos invariants --- *)

let test_rpc_dead_node_times_out () =
  let cl = mk_cluster () in
  Cluster.fail_node cl 1;
  let failed_at = ref (-1.0) and delivered = ref false in
  Transport.call cl ~src:0 ~dst:1 ~bytes:64 ~work:5.0
    ~on_fail:(fun () -> failed_at := Engine.now cl.Cluster.engine)
    (fun () -> delivered := true)
    ();
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check bool) "success continuation never ran" false !delivered;
  (* Attempts start at 0, 5200, 10600 and 16400 µs: each times out
     after the 5000 µs rpc_timeout, with exponential backoffs of
     200/400/800 µs between attempts. *)
  Alcotest.(check (float 1e-6)) "gave up after the retry budget" 21_400.0 !failed_at;
  Alcotest.(check int) "three retries" 3 (Lion_sim.Metrics.count cl.Cluster.metrics Retries);
  Alcotest.(check int) "one timeout" 1 (Lion_sim.Metrics.count cl.Cluster.metrics Timeouts);
  Alcotest.(check int) "every attempt dropped" 4 (Lion_sim.Metrics.count cl.Cluster.metrics Drops)

let test_rpc_retry_succeeds_after_recovery () =
  let cl = mk_cluster () in
  Cluster.fail_node cl 1;
  let delivered_at = ref (-1.0) and failed = ref false in
  Transport.call cl ~src:0 ~dst:1 ~bytes:0 ~work:0.0
    ~on_fail:(fun () -> failed := true)
    (fun () -> delivered_at := Engine.now cl.Cluster.engine)
    ();
  Engine.schedule cl.Cluster.engine ~delay:3_000.0 (fun () -> Cluster.recover_node cl 1);
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check bool) "no failure surfaced" false !failed;
  (* First attempt lost at t=0, timer at 5000, backoff 200; the retry
     at 5200 finds the node recovered: two 60 µs one-way trips later. *)
  Alcotest.(check (float 1e-6)) "retry delivered" 5_320.0 !delivered_at;
  Alcotest.(check int) "one retry" 1 (Lion_sim.Metrics.count cl.Cluster.metrics Retries);
  Alcotest.(check int) "no timeout" 0 (Lion_sim.Metrics.count cl.Cluster.metrics Timeouts)

(* The request reaches node 1 and is served, but every reply on the
   1->0 link is lost while the drop window lasts. One-way delay for 64
   bytes is 60 + 64 * 0.0085 = 60.544 µs and service takes 5 µs. *)
let reply_drop_cluster ~until =
  mk_cluster
    ~cfg:
      {
        Config.default with
        Config.fault_plan =
          Lion_sim.Fault.lossy ~src:1 ~dst:0 ~prob:1.0 ~from_:0.0 ~until ();
      }
    ()

let test_rpc_reply_dropped_then_retried () =
  let cl = reply_drop_cluster ~until:1_000.0 in
  let delivered_at = ref (-1.0) and failed = ref false in
  Transport.call cl ~src:0 ~dst:1 ~bytes:64 ~work:5.0
    ~on_fail:(fun () -> failed := true)
    (fun () -> delivered_at := Engine.now cl.Cluster.engine)
    ();
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check bool) "no failure surfaced" false !failed;
  (* The reply sent at 65.544 is lost; the timer fires at 5000, the
     retry leaves after a 200 µs backoff, and its reply (sent after the
     window closed) lands two one-way trips and the work later. *)
  Alcotest.(check (float 1e-6)) "retry delivered" 5_326.088 !delivered_at;
  Alcotest.(check (float 1e-6)) "both requests served" 10.0
    (Lion_sim.Server.busy_time cl.Cluster.services.(1));
  Alcotest.(check int) "one retry" 1 (Lion_sim.Metrics.count cl.Cluster.metrics Retries);
  Alcotest.(check int) "no timeout" 0 (Lion_sim.Metrics.count cl.Cluster.metrics Timeouts);
  Alcotest.(check int) "one reply dropped" 1 (Lion_sim.Metrics.count cl.Cluster.metrics Drops)

let test_rpc_reply_always_dropped_exhausts () =
  let cl = reply_drop_cluster ~until:1e9 in
  let failed_at = ref (-1.0) and delivered = ref false in
  Transport.call cl ~src:0 ~dst:1 ~bytes:64 ~work:5.0
    ~on_fail:(fun () -> failed_at := Engine.now cl.Cluster.engine)
    (fun () -> delivered := true)
    ();
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check bool) "success continuation never ran" false !delivered;
  (* Same schedule as a dead destination (attempts at 0, 5200, 10600,
     16400), but every request was served before its reply was lost. *)
  Alcotest.(check (float 1e-6)) "gave up after the retry budget" 21_400.0 !failed_at;
  Alcotest.(check (float 1e-6)) "every request served" 20.0
    (Lion_sim.Server.busy_time cl.Cluster.services.(1));
  Alcotest.(check int) "three retries" 3 (Lion_sim.Metrics.count cl.Cluster.metrics Retries);
  Alcotest.(check int) "one timeout" 1 (Lion_sim.Metrics.count cl.Cluster.metrics Timeouts);
  Alcotest.(check int) "every reply dropped" 4 (Lion_sim.Metrics.count cl.Cluster.metrics Drops)

(* Node 1's two service slots are held until 10000 µs and its one queue
   place is taken, so the first two requests are shed on arrival; the
   sender only learns by timing out. The third attempt (sent at 10600)
   finds a free slot. *)
let test_rpc_shed_by_full_service_queue () =
  let cl =
    mk_cluster
      ~cfg:
        {
          Config.default with
          Config.admission =
            Some { Config.queue_cap = 1; shed_policy = Lion_sim.Server.Reject_newest };
        }
      ()
  in
  let svc = cl.Cluster.services.(1) in
  for _ = 1 to 3 do
    Lion_sim.Server.submit svc ~work:10_000.0 (fun () -> ())
  done;
  let delivered_at = ref (-1.0) and failed = ref false in
  Transport.call cl ~src:0 ~dst:1 ~bytes:64 ~work:5.0
    ~on_fail:(fun () -> failed := true)
    (fun () -> delivered_at := Engine.now cl.Cluster.engine)
    ();
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check bool) "no failure surfaced" false !failed;
  Alcotest.(check (float 1e-6)) "third attempt delivered" 10_726.088 !delivered_at;
  Alcotest.(check int) "two sheds" 2 (Lion_sim.Server.sheds svc);
  Alcotest.(check int) "two retries" 2 (Lion_sim.Metrics.count cl.Cluster.metrics Retries);
  Alcotest.(check int) "no timeout" 0 (Lion_sim.Metrics.count cl.Cluster.metrics Timeouts);
  Alcotest.(check int) "nothing dropped" 0 (Lion_sim.Metrics.count cl.Cluster.metrics Drops)

let test_submit_local_dead_node_fails () =
  let cl = mk_cluster () in
  Cluster.fail_node cl 1;
  let failed = ref false and ran = ref false in
  Cluster.submit_local cl ~node:1 ~work:5.0
    ~on_fail:(fun () -> failed := true)
    (fun () -> ran := true);
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check bool) "work refused" false !ran;
  Alcotest.(check bool) "on_fail called" true !failed

let test_crash_fails_queued_worker_requests () =
  (* A crash must fail-fast work already parked in the dead node's
     worker queue — the queued request's [on_fail] fires at the crash
     instant rather than the request waiting forever (or executing on a
     corpse). *)
  let cl = mk_cluster () in
  let workers = Config.default.Config.workers_per_node in
  for _ = 1 to workers do
    Cluster.acquire_worker cl ~node:1 (fun _lease -> ())
  done;
  let failed = ref false and granted = ref false in
  Cluster.acquire_worker cl ~node:1
    ~on_fail:(fun () -> failed := true)
    (fun _lease -> granted := true);
  Alcotest.(check bool) "request parked behind the full pool" false !failed;
  Cluster.fail_node cl 1;
  Alcotest.(check bool) "queued request failed at the crash instant" true !failed;
  Alcotest.(check bool) "never granted" false !granted;
  (* After the crash, new requests are refused on arrival too. *)
  let failed2 = ref false in
  Cluster.acquire_worker cl ~node:1
    ~on_fail:(fun () -> failed2 := true)
    (fun _lease -> ());
  Alcotest.(check bool) "post-crash request refused on arrival" true !failed2;
  Engine.run_all cl.Cluster.engine ()

let test_failed_remaster_keeps_cooldown () =
  let cl = mk_cluster () in
  Cluster.add_replica cl ~part:0 ~node:2 ~on_ready:(fun () -> ());
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check bool) "starts" true (Cluster.try_begin_remaster cl ~part:0 ~node:1);
  (* The target dies mid-transfer: the remaster must fail, leave the
     primary in place and roll back the cooldown stamp. *)
  Cluster.fail_node cl 1;
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check int) "primary unchanged" 0 (Placement.primary cl.Cluster.placement 0);
  Alcotest.(check int) "not counted" 0 (remasters_done cl);
  Alcotest.(check bool) "cooldown not burned" true
    (Cluster.try_begin_remaster cl ~part:0 ~node:2)

let test_remaster_during_partition () =
  (* The remaster target is partitioned away from the rest of the
     cluster mid-transfer: the lag ship is Blocked by the fault layer,
     so the promotion must not happen (a primary whose log suffix never
     arrived would serve stale state). When the partition heals the old
     primary is still the only primary and the cooldown has not been
     consumed by the failed attempt. *)
  let cfg =
    {
      Config.default with
      Config.fault_plan =
        [ Lion_sim.Fault.partition ~groups:[ [ 1 ]; [ 0; 2; 3 ] ] ~from_:0.0 ~until:2_000.0 ];
    }
  in
  let cl = mk_cluster ~cfg () in
  (* Node 1 is the secondary of partition 0 in the default layout. *)
  Alcotest.(check bool) "starts" true (Cluster.try_begin_remaster cl ~part:0 ~node:1);
  Engine.run_until cl.Cluster.engine 3_000.0;
  Alcotest.(check int) "primary unchanged" 0 (Placement.primary cl.Cluster.placement 0);
  Alcotest.(check bool) "target still a secondary, not a second primary" true
    (Placement.has_secondary cl.Cluster.placement ~part:0 ~node:1);
  Alcotest.(check int) "not counted" 0 (remasters_done cl);
  (* Healed: the retry is admitted immediately — the failed attempt did
     not burn the partition's remaster cooldown. *)
  Alcotest.(check bool) "cooldown not burned" true
    (Cluster.try_begin_remaster cl ~part:0 ~node:1);
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check int) "retry succeeds after heal" 1 (Placement.primary cl.Cluster.placement 0)

let test_election_purges_dead_secondary () =
  let cl = mk_cluster () in
  (* Partition 1: primary node 1, secondary node 2. *)
  Cluster.fail_node cl 1;
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  Alcotest.(check int) "survivor promoted" 2 (Placement.primary cl.Cluster.placement 1);
  Alcotest.(check bool) "dead node purged from secondaries" false
    (Placement.has_secondary cl.Cluster.placement ~part:1 ~node:1);
  for part = 0 to Cluster.partition_count cl - 1 do
    List.iter
      (fun n -> Alcotest.(check bool) "all secondaries live" true (Cluster.alive cl n))
      (Placement.secondaries cl.Cluster.placement part)
  done

let test_recover_resync_charges_network () =
  let cfg = { Config.default with Config.replicas = 1 } in
  let cl = Cluster.create ~seed:5 cfg in
  Cluster.fail_node cl 1;
  let before = Lion_sim.Network.total_bytes cl.Cluster.network in
  Cluster.recover_node cl 1;
  Alcotest.(check bool) "resync bytes charged" true
    (Lion_sim.Network.total_bytes cl.Cluster.network > before);
  (* The rejoined primary pays the election delay plus the log-suffix
     transfer before serving again. *)
  Alcotest.(check bool) "blocked past election delay" true
    (Cluster.partition_wait cl 1 > Config.election_delay);
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  Alcotest.(check (float 1e-9)) "serveable after resync" 0.0 (Cluster.partition_wait cl 1)

let test_availability_tracks_failures () =
  let cl = mk_cluster () in
  Alcotest.(check (float 1e-9)) "healthy cluster" 1.0 (Cluster.availability cl);
  Cluster.fail_node cl 1;
  let degraded = Cluster.availability cl in
  Alcotest.(check bool) "degraded on failure" true (degraded < 1.0 && degraded > 0.0);
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.0);
  Cluster.recover_node cl 1;
  Engine.run_until cl.Cluster.engine (Engine.seconds 2.0);
  Alcotest.(check (float 1e-9)) "restored after recovery" 1.0 (Cluster.availability cl)

let test_fault_plan_drives_cluster () =
  let cfg =
    {
      Config.default with
      Config.fault_plan =
        Lion_sim.Fault.crash_recover ~node:1 ~at:(Engine.seconds 1.0)
          ~downtime:(Engine.seconds 1.0);
    }
  in
  let cl = Cluster.create ~seed:5 cfg in
  Engine.run_until cl.Cluster.engine (Engine.seconds 1.5);
  Alcotest.(check bool) "crashed by plan" false (Cluster.alive cl 1);
  Engine.run_until cl.Cluster.engine (Engine.seconds 3.0);
  Alcotest.(check bool) "recovered by plan" true (Cluster.alive cl 1)

let prop_fault_sequence_placement_consistent =
  QCheck.Test.make
    ~name:"any crash/recover sequence leaves placement consistent" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 0 12)
        (triple bool (int_range 0 3) (float_range 0.0 20_000.0)))
    (fun ops ->
      let cl = Cluster.create ~seed:7 Config.default in
      List.iter
        (fun (fail, node, advance) ->
          if fail then Cluster.fail_node cl node else Cluster.recover_node cl node;
          Engine.run_until cl.Cluster.engine (Engine.now cl.Cluster.engine +. advance))
        ops;
      Engine.run_all cl.Cluster.engine ();
      let ok = ref true in
      for part = 0 to Cluster.partition_count cl - 1 do
        (* A dead primary is only legal for a partition explicitly
           parked as unavailable; secondaries never sit on dead nodes. *)
        let prim = Placement.primary cl.Cluster.placement part in
        if not (Cluster.alive cl prim) then
          ok := !ok && Cluster.partition_wait cl part = infinity;
        List.iter
          (fun n -> ok := !ok && Cluster.alive cl n)
          (Placement.secondaries cl.Cluster.placement part)
      done;
      !ok)

(* --- elastic membership (docs/MEMBERSHIP.md) --- *)

let mk_elastic ?(rate = 200.0) () =
  let cfg =
    {
      Config.default with
      Config.elastic = Some { Config.default_elastic with rebalance_rate = rate };
      session_tagging = true;
    }
  in
  (cfg, Cluster.create ~seed:5 cfg)

let test_join_node_populates () =
  let _cfg, cl = mk_elastic () in
  Alcotest.(check int) "initial members" 4 (Cluster.member_count cl);
  Alcotest.(check bool) "standby not alive" false (Cluster.alive cl 4);
  let v = cl.Cluster.membership_version in
  Alcotest.(check bool) "join accepted" true (Cluster.join_node cl 4);
  Alcotest.(check bool) "join idempotent refused" false (Cluster.join_node cl 4);
  Alcotest.(check bool) "out of range refused" false (Cluster.join_node cl 6);
  Alcotest.(check int) "five members" 5 (Cluster.member_count cl);
  Alcotest.(check bool) "version bumped" true (cl.Cluster.membership_version > v);
  Engine.run_all cl.Cluster.engine ();
  (* The balance pass populates the newcomer one bounded step at a time. *)
  Alcotest.(check bool) "replicas moved onto joiner" true
    (Placement.replicas_on cl.Cluster.placement 4 > 0);
  Alcotest.(check bool) "migrations counted" true (cl.Cluster.rebalance_migrations > 0)

let test_decommission_drains_fully () =
  let cfg, cl = mk_elastic () in
  Alcotest.(check bool) "accepted" true (Cluster.decommission_node cl 3);
  Alcotest.(check bool) "double decommission refused" false (Cluster.decommission_node cl 3);
  Alcotest.(check bool) "still a member while draining" true cl.Cluster.member.(3);
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check bool) "left the membership" false cl.Cluster.member.(3);
  Alcotest.(check int) "completion counted" 1 cl.Cluster.decommission_count;
  Alcotest.(check int) "node emptied" 0 (Placement.replicas_on cl.Cluster.placement 3);
  for part = 0 to Cluster.partition_count cl - 1 do
    let prim = Placement.primary cl.Cluster.placement part in
    Alcotest.(check bool) "primary off the drained node" true (prim <> 3);
    Alcotest.(check int) "replication factor restored" cfg.Config.replicas
      (Placement.replica_count cl.Cluster.placement part)
  done

let test_decommission_floor_refused () =
  let _cfg, cl = mk_elastic () in
  (* Drain down to the floor: with replicas = 2 a decommission needs at
     least 2 other live eligible members, so the fourth-to-last and
     third-to-last leave but the second-to-last is refused. *)
  Alcotest.(check bool) "4 -> 3 accepted" true (Cluster.decommission_node cl 3);
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check bool) "3 -> 2 accepted" true (Cluster.decommission_node cl 2);
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check int) "two members left" 2 (Cluster.member_count cl);
  Alcotest.(check bool) "2 -> 1 refused" false (Cluster.decommission_node cl 1);
  Alcotest.(check bool) "non-member refused" false (Cluster.decommission_node cl 3)

(* Satellite: a replica install whose target crashed and rejoined
   mid-copy is a stale-session stream. Tagged sessions reject it (and
   count it); untagged sessions accept it and leave the divergence
   signature — believed watermark caught up, durable watermark empty. *)
let test_stale_install_rejected_when_tagged () =
  let cfg = { Config.default with Config.session_tagging = true } in
  let cl = Cluster.create ~seed:5 cfg in
  for _ = 1 to 5 do
    Lion_store.Replication.append cl.Cluster.replication ~part:0
  done;
  Cluster.add_replica cl ~part:0 ~node:3 ~on_ready:(fun () -> ());
  (* Crash + rejoin before the 200 ms copy completes: the install's
     session now predates node 3's incarnation. *)
  Cluster.fail_node cl 3;
  Cluster.recover_node cl 3;
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check bool) "install dropped" false
    (Placement.has_secondary cl.Cluster.placement ~part:0 ~node:3);
  Alcotest.(check int) "rejection counted" 1
    (Lion_sim.Metrics.count cl.Cluster.metrics Stale_acks)

let test_stale_install_accepted_when_untagged () =
  let cl = Cluster.create ~seed:5 Config.default in
  let repl = cl.Cluster.replication in
  for _ = 1 to 5 do
    Lion_store.Replication.append repl ~part:0
  done;
  Cluster.add_replica cl ~part:0 ~node:3 ~on_ready:(fun () -> ());
  Cluster.fail_node cl 3;
  Cluster.recover_node cl 3;
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check bool) "stale install accepted" true
    (Placement.has_secondary cl.Cluster.placement ~part:0 ~node:3);
  (* The corruption signature the divergence audit looks for. *)
  Alcotest.(check int) "believed caught up" 5
    (Lion_store.Replication.applied repl ~part:0 ~node:3);
  Alcotest.(check int) "storage durably empty" 0
    (Lion_store.Replication.durable repl ~part:0 ~node:3);
  Alcotest.(check int) "nothing rejected" 0
    (Lion_sim.Metrics.count cl.Cluster.metrics Stale_acks)

(* Satellite: a node that was remastered away from (through Placement
   directly, planner-style) while down must not resurrect its stale
   demoted copy at recovery — recover_node purges it and counts it. *)
let test_recover_purges_stale_secondary () =
  let cl = Cluster.create ~seed:5 Config.default in
  (* Partition 1: primary node 1, secondary node 2. *)
  Cluster.fail_node cl 1;
  Placement.remaster cl.Cluster.placement ~part:1 ~node:2;
  Alcotest.(check bool) "demoted in place" true
    (Placement.has_secondary cl.Cluster.placement ~part:1 ~node:1);
  Cluster.recover_node cl 1;
  Alcotest.(check bool) "stale copy purged" false
    (Placement.has_secondary cl.Cluster.placement ~part:1 ~node:1);
  Alcotest.(check int) "purge counted" 1
    (Lion_sim.Metrics.count cl.Cluster.metrics Replica_purges);
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check bool) "no double purge" true
    (Lion_sim.Metrics.count cl.Cluster.metrics Replica_purges = 1)

(* Satellite: the remaster target dying mid-transfer must clear the
   inflight flag and roll back the cooldown immediately, leaving the
   completion timer a no-op. *)
let test_remaster_cancelled_when_target_dies () =
  let cfg = { Config.default with Config.replicas = 3 } in
  let cl = Cluster.create ~seed:5 cfg in
  (* Partition 0: primary 0, secondaries 1 and 2. *)
  Alcotest.(check bool) "starts" true (Cluster.try_begin_remaster cl ~part:0 ~node:1);
  Cluster.fail_node cl 1;
  Alcotest.(check bool) "inflight cleared eagerly" false cl.Cluster.remaster_inflight.(0);
  (* The cooldown was rolled back too: a retry to the surviving
     secondary is admitted immediately, not [remaster_cooldown] later. *)
  Alcotest.(check bool) "retry admitted at once" true
    (Cluster.try_begin_remaster cl ~part:0 ~node:2);
  Engine.run_all cl.Cluster.engine ();
  Alcotest.(check int) "retry promoted" 2 (Placement.primary cl.Cluster.placement 0);
  Alcotest.(check int) "only the retry counted" 1 (remasters_done cl)

let prop_membership_interleaving =
  QCheck.Test.make
    ~name:
      "any join/decommission/crash/rejoin interleaving converges to full replication"
    ~count:40
    QCheck.(
      list_of_size (Gen.int_range 0 10)
        (triple (int_range 0 3) (int_range 0 5) (float_range 0.0 300_000.0)))
    (fun ops ->
      let cfg, cl = mk_elastic () in
      List.iter
        (fun (kind, node, advance) ->
          (match kind with
          | 0 -> ignore (Cluster.join_node cl node)
          | 1 ->
              (* Keep enough members for the factor; decommission_node
                 has its own live-eligible floor on top. *)
              if Cluster.member_count cl > cfg.Config.replicas + 1 then
                ignore (Cluster.decommission_node cl node)
          | 2 -> Cluster.fail_node cl node
          | _ -> Cluster.recover_node cl node);
          Engine.run_until cl.Cluster.engine (Engine.now cl.Cluster.engine +. advance))
        ops;
      (* Rejoin every crashed member, then let the rebalancer converge. *)
      Array.iteri
        (fun n m -> if m && not (Cluster.alive cl n) then Cluster.recover_node cl n)
        cl.Cluster.member;
      Engine.run_all cl.Cluster.engine ();
      let ok = ref true in
      for part = 0 to Cluster.partition_count cl - 1 do
        let prim = Placement.primary cl.Cluster.placement part in
        let holders =
          prim :: Placement.secondaries cl.Cluster.placement part
          |> List.sort_uniq compare
        in
        (* Exactly one live primary, exactly [replicas] live copies. *)
        ok := !ok && Cluster.alive cl prim;
        ok := !ok && List.length holders = cfg.Config.replicas;
        List.iter (fun n -> ok := !ok && Cluster.alive cl n) holders
      done;
      !ok)

(* A decommission can finalise while a catch-up install is still
   copying to the leaving node. The copy's completion skips a dead
   target, so the leaver must drop that move's guard itself, or the
   rebalancer keeps ticking for it forever. *)
let test_decommission_drops_moves_to_leaver () =
  let cfg =
    {
      Config.default with
      Config.geo = Some Config.default_geo;
      elastic = Some { Config.default_elastic with rebalance_rate = 200.0 };
      session_tagging = true;
    }
  in
  let cl = Cluster.create ~seed:5 cfg in
  let e = cl.Cluster.engine in
  Alcotest.(check bool) "join accepted" true (Cluster.join_node cl 4);
  Engine.run_until e (Engine.now e +. 117_200.0);
  Alcotest.(check bool) "decommission accepted" true (Cluster.decommission_node cl 4);
  Engine.run_until e (Engine.now e +. 181_081.0);
  Engine.run_all e ~max_events:1_000_000 ();
  Alcotest.(check bool) "queue drained" false (Engine.last_run_exhausted e);
  Alcotest.(check bool) "rebalancer stopped" false cl.Cluster.rebalance_running;
  Alcotest.(check int) "no moves pending" 0 (Hashtbl.length cl.Cluster.move_inflight)

(* --- configuration presets --- *)

(* Every preset's documented values, as a literal table: a change to a
   starting point must show up here, not only in a sweep's output. *)
let test_overload_preset_values () =
  let c = Config.with_overload_defaults Config.default in
  Alcotest.(check bool) "admission" true
    (c.Config.admission
    = Some { Config.queue_cap = 64; shed_policy = Lion_sim.Server.Reject_newest });
  Alcotest.(check bool) "control priority" true c.Config.control_priority;
  Alcotest.(check bool) "retry budget" true
    (c.Config.retry_budget = Some { Config.rate = 2_000.0; burst = 64.0 });
  Alcotest.(check bool) "breaker" true
    (c.Config.breaker = Some { Config.threshold = 8; cooldown = 50_000.0 });
  Alcotest.(check bool) "deadline" true
    (c.Config.deadline = Some { Config.after = 200_000.0; enforce = true })

let test_geo_preset_values () =
  Alcotest.(check bool) "geo" true
    (Config.default_geo
    = { Config.regions = 2; min_regions = 2; wan_latency = 50_000.0; wan_per_byte = 0.05 })

let test_elastic_preset_values () =
  let c = Config.with_elastic_defaults Config.default in
  Alcotest.(check bool) "elastic" true
    (c.Config.elastic = Some { Config.standby_nodes = 2; rebalance_rate = 50.0 });
  Alcotest.(check bool) "session tagging" true c.Config.session_tagging

let test_default_subsystems_off () =
  let c = Config.default in
  Alcotest.(check bool) "admission" true (c.Config.admission = None);
  Alcotest.(check bool) "retry budget" true (c.Config.retry_budget = None);
  Alcotest.(check bool) "breaker" true (c.Config.breaker = None);
  Alcotest.(check bool) "deadline" true (c.Config.deadline = None);
  Alcotest.(check bool) "geo" true (c.Config.geo = None);
  Alcotest.(check bool) "elastic" true (c.Config.elastic = None);
  Alcotest.(check bool) "control priority" false c.Config.control_priority;
  Alcotest.(check bool) "session tagging" false c.Config.session_tagging

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "lion_store"
    [
      ( "placement",
        [
          Alcotest.test_case "round robin layout" `Quick test_round_robin_layout;
          Alcotest.test_case "replica counts" `Quick test_replica_counts;
          Alcotest.test_case "remaster swaps" `Quick test_remaster_swaps;
          Alcotest.test_case "remaster noop on primary" `Quick test_remaster_noop_on_primary;
          Alcotest.test_case "remaster requires replica" `Quick test_remaster_requires_replica;
          Alcotest.test_case "add secondary" `Quick test_add_secondary;
          Alcotest.test_case "max replicas enforced" `Quick test_add_secondary_respects_max;
          Alcotest.test_case "remove secondary" `Quick test_remove_secondary;
          Alcotest.test_case "best local node" `Quick test_best_local_node;
          Alcotest.test_case "best local prefers primaries" `Quick
            test_best_local_prefers_primaries;
          Alcotest.test_case "parts primary on" `Quick test_parts_primary_on;
          Alcotest.test_case "count helpers" `Quick test_count_helpers;
          Alcotest.test_case "copy isolated" `Quick test_copy_isolated;
        ] );
      qsuite "placement-props" [ test_placement_invariant_random_ops ];
      ( "occ",
        [
          Alcotest.test_case "fresh versions" `Quick test_versions_start_at_zero;
          Alcotest.test_case "commit bumps" `Quick test_commit_bumps_versions;
          Alcotest.test_case "conflict detected" `Quick test_validate_detects_conflict;
          Alcotest.test_case "no false conflicts" `Quick test_validate_passes_without_conflict;
          Alcotest.test_case "reserve excludes writers" `Quick
            test_reserve_blocks_concurrent_writers;
          Alcotest.test_case "release unblocks" `Quick test_release_reservation_unblocks;
          Alcotest.test_case "reader blocked by pending" `Quick
            test_reader_blocked_by_pending_write;
          Alcotest.test_case "write is RMW" `Quick test_write_is_rmw;
          Alcotest.test_case "read/write sets" `Quick test_read_write_sets;
          Alcotest.test_case "sparse storage" `Quick test_touched_keys_sparse;
        ] );
      ( "kvstore-model",
        [
          Alcotest.test_case "unpackable keys refused" `Quick
            test_kvstore_rejects_unpackable_keys;
          Alcotest.test_case "edge key usable" `Quick test_kvstore_edge_key_usable;
          Alcotest.test_case "packed cells keep slot edges" `Quick
            test_packed_cells_keep_slot_edges;
          Alcotest.test_case "partition tables independent" `Quick
            test_partition_tables_independent;
          Alcotest.test_case "last partition like the first" `Quick
            test_last_partition_like_first;
        ] );
      qsuite "key-packing" [ prop_key_roundtrip; prop_key_order ];
      qsuite "occ-props"
        [
          test_occ_serializability_property;
          prop_kvstore_matches_model;
          prop_hints_match_reference;
          prop_long_sessions_keep_access_order;
        ];
      ( "cluster",
        [
          Alcotest.test_case "shape" `Quick test_cluster_shape;
          Alcotest.test_case "remaster blocks partition" `Quick test_remaster_blocks_partition;
          Alcotest.test_case "remaster conflict refused" `Quick test_remaster_conflict_refused;
          Alcotest.test_case "remaster cooldown" `Quick test_remaster_cooldown;
          Alcotest.test_case "remaster needs replica" `Quick
            test_remaster_without_replica_refused;
          Alcotest.test_case "add replica background" `Quick test_add_replica_background;
          Alcotest.test_case "add replica idempotent" `Quick test_add_replica_idempotent;
          Alcotest.test_case "eviction at max replicas" `Quick test_add_replica_evicts_at_max;
          Alcotest.test_case "access frequency" `Quick test_access_frequency_tracking;
          Alcotest.test_case "rpc via remote service pool" `Quick
            test_rpc_consumes_remote_service;
          Alcotest.test_case "replication bytes" `Quick test_replicate_commit_charges_bytes;
        ] );
      ( "placement-stats",
        [
          Alcotest.test_case "counts" `Quick test_stats_counts;
          Alcotest.test_case "imbalance" `Quick test_stats_imbalance_after_remaster;
          Alcotest.test_case "coverage/colocation" `Quick test_stats_coverage_and_colocation;
          Alcotest.test_case "pp renders" `Quick test_stats_pp_renders;
        ] );
      ( "replication",
        [
          Alcotest.test_case "appends counted" `Quick test_replication_appends_counted;
          Alcotest.test_case "lag window" `Quick test_replication_lag_window;
          Alcotest.test_case "commit feeds log" `Quick test_commit_feeds_replication_log;
          Alcotest.test_case "remaster ships lag" `Quick test_remaster_bytes_scale_with_lag;
          Alcotest.test_case "durable rows" `Quick test_replication_durable_rows;
          Alcotest.test_case "standby-slot watermarks" `Quick
            test_cluster_watermarks_span_standby_slots;
        ] );
      ( "failover",
        [
          Alcotest.test_case "failure drops secondaries" `Quick
            test_fail_node_drops_secondaries;
          Alcotest.test_case "failover promotes survivor" `Quick
            test_fail_node_promotes_survivor;
          Alcotest.test_case "failure idempotent" `Quick test_fail_node_idempotent;
          Alcotest.test_case "orphan blocks until recovery" `Quick
            test_orphaned_partition_blocks_until_recovery;
          Alcotest.test_case "Lion survives failover" `Quick test_lion_survives_failover;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "rpc to dead node times out" `Quick
            test_rpc_dead_node_times_out;
          Alcotest.test_case "rpc retry succeeds after recovery" `Quick
            test_rpc_retry_succeeds_after_recovery;
          Alcotest.test_case "rpc reply dropped then retried" `Quick
            test_rpc_reply_dropped_then_retried;
          Alcotest.test_case "rpc reply always dropped exhausts" `Quick
            test_rpc_reply_always_dropped_exhausts;
          Alcotest.test_case "rpc shed by full service queue" `Quick
            test_rpc_shed_by_full_service_queue;
          Alcotest.test_case "submit_local refuses dead node" `Quick
            test_submit_local_dead_node_fails;
          Alcotest.test_case "crash fails queued worker requests" `Quick
            test_crash_fails_queued_worker_requests;
          Alcotest.test_case "failed remaster keeps cooldown" `Quick
            test_failed_remaster_keeps_cooldown;
          Alcotest.test_case "remaster during partition" `Quick
            test_remaster_during_partition;
          Alcotest.test_case "election purges dead secondary" `Quick
            test_election_purges_dead_secondary;
          Alcotest.test_case "recovery resync charges network" `Quick
            test_recover_resync_charges_network;
          Alcotest.test_case "availability tracks failures" `Quick
            test_availability_tracks_failures;
          Alcotest.test_case "fault plan drives cluster" `Quick
            test_fault_plan_drives_cluster;
        ] );
      qsuite "chaos-props" [ prop_fault_sequence_placement_consistent ];
      ( "membership",
        [
          Alcotest.test_case "join populates" `Quick test_join_node_populates;
          Alcotest.test_case "decommission drains fully" `Quick
            test_decommission_drains_fully;
          Alcotest.test_case "decommission floor refused" `Quick
            test_decommission_floor_refused;
          Alcotest.test_case "stale install rejected (tagged)" `Quick
            test_stale_install_rejected_when_tagged;
          Alcotest.test_case "stale install accepted (untagged)" `Quick
            test_stale_install_accepted_when_untagged;
          Alcotest.test_case "recovery purges stale secondary" `Quick
            test_recover_purges_stale_secondary;
          Alcotest.test_case "remaster cancelled on target death" `Quick
            test_remaster_cancelled_when_target_dies;
          Alcotest.test_case "decommission drops moves to leaver" `Quick
            test_decommission_drops_moves_to_leaver;
        ] );
      ( "config",
        [
          Alcotest.test_case "overload preset values" `Quick test_overload_preset_values;
          Alcotest.test_case "geo preset values" `Quick test_geo_preset_values;
          Alcotest.test_case "elastic preset values" `Quick test_elastic_preset_values;
          Alcotest.test_case "default subsystems off" `Quick test_default_subsystems_off;
        ] );
      qsuite "membership-props" [ prop_membership_interleaving ];
    ]
