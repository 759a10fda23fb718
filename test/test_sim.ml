(* Tests for the discrete-event engine, servers, network and metrics. *)

open Lion_sim
module Rng = Lion_kernel.Rng

(* --- engine --- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:5.0 (fun () -> log := 5 :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log);
  Engine.run_all e ();
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !log)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run_all e ();
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  Engine.schedule e ~delay:10.0 (fun () -> seen := Engine.now e);
  Engine.run_all e ();
  Alcotest.(check (float 1e-9)) "clock at event" 10.0 !seen

let test_engine_run_until_deadline () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count)
  done;
  Engine.run_until e 5.0;
  Alcotest.(check int) "only first five" 5 !count;
  Alcotest.(check (float 1e-9)) "clock at deadline" 5.0 (Engine.now e);
  Engine.run_until e 20.0;
  Alcotest.(check int) "rest delivered" 10 !count

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      log := "a" :: !log;
      Engine.schedule e ~delay:1.0 (fun () -> log := "b" :: !log));
  Engine.run_all e ();
  Alcotest.(check (list string)) "nested fires" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "time accumulated" 2.0 (Engine.now e)

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~delay:(-5.0) (fun () -> fired := true);
  Engine.run_all e ();
  Alcotest.(check bool) "fires at now" true !fired;
  Alcotest.(check (float 1e-9)) "clock unchanged" 0.0 (Engine.now e)

let test_engine_at_absolute () =
  let e = Engine.create () in
  let fired_at = ref (-1.0) in
  Engine.at e ~time:25.0 (fun () -> fired_at := Engine.now e);
  Engine.run_all e ();
  Alcotest.(check (float 1e-9)) "fires at absolute time" 25.0 !fired_at;
  (* A time in the past clamps to now. *)
  let late = ref (-1.0) in
  Engine.at e ~time:1.0 (fun () -> late := Engine.now e);
  Engine.run_all e ();
  Alcotest.(check (float 1e-9)) "past clamps to now" 25.0 !late

let test_engine_units () =
  Alcotest.(check (float 1e-9)) "1 second" 1e6 (Engine.seconds 1.0);
  Alcotest.(check (float 1e-9)) "1 ms" 1e3 (Engine.ms 1.0)

let test_engine_apply_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  let record (x : int) = log := (x, Engine.now e) :: !log in
  Engine.schedule_apply e ~delay:2.0 record 1;
  Engine.at_apply e ~time:1.0 record 2;
  Engine.run_all e ();
  Alcotest.(check (list (pair int (float 1e-9))))
    "apply events fire in time order with their payloads"
    [ (2, 1.0); (1, 2.0) ] (List.rev !log);
  Alcotest.(check int) "events counted" 2 (Engine.events_processed e)

let test_engine_run_all_exhaustion () =
  let e = Engine.create () in
  (* A self-perpetuating event loop: every execution schedules the
     next, so only the budget can stop the drain. *)
  let rec tick () = Engine.schedule e ~delay:1.0 tick in
  Engine.schedule e ~delay:1.0 tick;
  Engine.run_all e ~max_events:50 ();
  Alcotest.(check bool) "flagged as exhausted" true (Engine.last_run_exhausted e);
  Alcotest.(check int) "stopped at the budget" 50 (Engine.events_processed e);
  Alcotest.(check bool) "events still pending" true (Engine.pending e > 0);
  (* A clean drain resets the flag. *)
  let e2 = Engine.create () in
  Engine.schedule e2 ~delay:1.0 (fun () -> ());
  Engine.run_all e2 ();
  Alcotest.(check bool) "clean drain not exhausted" false
    (Engine.last_run_exhausted e2)

let test_engine_clamp_counting () =
  let e = Engine.create () in
  Alcotest.(check int) "starts at zero" 0 (Engine.clamped_schedules e);
  Engine.schedule e ~delay:10.0 (fun () -> ());
  Engine.run_all e ();
  Alcotest.(check int) "forward schedules don't count" 0
    (Engine.clamped_schedules e);
  Engine.at e ~time:1.0 (fun () -> ());
  (* past-dated *)
  Engine.schedule e ~delay:(-2.0) (fun () -> ());
  (* negative delay *)
  Engine.run_all e ();
  Alcotest.(check int) "one past-dated at + one negative delay" 2
    (Engine.clamped_schedules e);
  (* ...and Metrics surfaces the same count. *)
  let m = Metrics.create e in
  Alcotest.(check int) "metrics surfaces engine clamps" 2
    (Metrics.schedule_clamps m)

(* --- server --- *)

let test_server_serial_queue () =
  let e = Engine.create () in
  let s = Server.create e ~capacity:1 in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Server.submit s ~work:10.0 (fun () -> done_at := Engine.now e :: !done_at)
  done;
  Engine.run_all e ();
  Alcotest.(check (list (float 1e-9))) "serialized" [ 10.0; 20.0; 30.0 ] (List.rev !done_at)

let test_server_parallel_capacity () =
  let e = Engine.create () in
  let s = Server.create e ~capacity:3 in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Server.submit s ~work:10.0 (fun () -> done_at := Engine.now e :: !done_at)
  done;
  Engine.run_all e ();
  List.iter
    (fun t -> Alcotest.(check (float 1e-9)) "all parallel" 10.0 t)
    !done_at

let test_server_busy_time_accrues () =
  let e = Engine.create () in
  let s = Server.create e ~capacity:2 in
  Server.submit s ~work:5.0 (fun () -> ());
  Server.submit s ~work:7.0 (fun () -> ());
  Engine.run_all e ();
  Alcotest.(check (float 1e-9)) "busy time" 12.0 (Server.busy_time s);
  Alcotest.(check int) "completed" 2 (Server.completed s)

let test_server_lease_hold_blocks () =
  let e = Engine.create () in
  let s = Server.create e ~capacity:1 in
  let second_started = ref (-1.0) in
  Server.acquire s (fun lease ->
      (* Hold across a simulated wait. *)
      Engine.schedule e ~delay:50.0 (fun () -> Server.release s lease));
  Server.acquire s (fun lease ->
      second_started := Engine.now e;
      Server.release s lease);
  Engine.run_all e ();
  Alcotest.(check (float 1e-9)) "second waits for release" 50.0 !second_started

let test_server_lease_busy_time_includes_wait () =
  let e = Engine.create () in
  let s = Server.create e ~capacity:1 in
  Server.acquire s (fun lease ->
      Engine.schedule e ~delay:30.0 (fun () -> Server.release s lease));
  Engine.run_all e ();
  Alcotest.(check (float 1e-9)) "hold counted" 30.0 (Server.busy_time s)

let test_server_double_release_raises () =
  let e = Engine.create () in
  let s = Server.create e ~capacity:1 in
  Server.acquire s (fun lease ->
      Server.release s lease;
      Alcotest.check_raises "double release" (Invalid_argument "Server.release: lease already released")
        (fun () -> Server.release s lease));
  Engine.run_all e ()

let test_server_queue_length () =
  let e = Engine.create () in
  let s = Server.create e ~capacity:1 in
  Server.submit s ~work:10.0 (fun () -> ());
  Server.submit s ~work:10.0 (fun () -> ());
  Server.submit s ~work:10.0 (fun () -> ());
  Alcotest.(check int) "two queued" 2 (Server.queue_length s);
  Alcotest.(check int) "one busy" 1 (Server.busy s);
  Engine.run_all e ();
  Alcotest.(check int) "drained" 0 (Server.queue_length s)

let test_server_bounded_queue_rejects_newest () =
  let e = Engine.create () in
  let global = ref 0 in
  let s =
    Server.create ~queue_cap:2 ~on_shed:(fun () -> incr global) e ~capacity:1
  in
  let completed = ref 0 and shed = ref 0 in
  for _ = 1 to 5 do
    Server.submit s ~on_shed:(fun () -> incr shed) ~work:10.0 (fun () ->
        incr completed)
  done;
  (* One in service, two admitted to the queue; arrivals 4 and 5 are
     turned away on the spot, not parked. *)
  Alcotest.(check int) "shed at arrival" 2 !shed;
  Engine.run_all e ();
  Alcotest.(check int) "three served" 3 !completed;
  Alcotest.(check int) "station hook fired for each shed" 2 !global

let test_server_codel_sheds_standing_queue () =
  let e = Engine.create () in
  let s =
    Server.create ~policy:(Server.Codel { target = 5.0; interval = 10.0 }) e
      ~capacity:1
  in
  let completed = ref 0 and shed = ref 0 in
  let job () =
    Server.submit s ~on_shed:(fun () -> incr shed) ~work:20.0 (fun () ->
        incr completed)
  in
  (* Four arrivals at t=0 build a standing queue; a fifth arrives at
     t=35 so its sojourn is back under the target when the server next
     dequeues (t=40). CoDel must cut the stale heads (jobs 3 and 4,
     40 µs old) and serve the fresh one. *)
  for _ = 1 to 4 do
    job ()
  done;
  Engine.schedule e ~delay:35.0 job;
  Engine.run_all e ();
  Alcotest.(check int) "stale heads cut" 2 !shed;
  Alcotest.(check int) "fresh work served" 3 !completed

let test_server_priority_control_first () =
  let e = Engine.create () in
  let s = Server.create e ~capacity:1 in
  let order = ref [] in
  Server.submit s ~work:10.0 (fun () -> order := "first" :: !order);
  Server.submit s ~work:10.0 (fun () -> order := "user" :: !order);
  Server.submit s ~prio:Server.High ~work:10.0 (fun () ->
      order := "control" :: !order);
  Engine.run_all e ();
  Alcotest.(check (list string))
    "control traffic jumps the user queue"
    [ "first"; "control"; "user" ]
    (List.rev !order)

let test_server_priority_never_shed () =
  let e = Engine.create () in
  let s = Server.create ~queue_cap:1 e ~capacity:1 in
  let completed = ref 0 and shed = ref 0 in
  Server.submit s ~work:10.0 (fun () -> incr completed);
  Server.submit s ~work:10.0 (fun () -> incr completed);
  (* The normal queue is at its cap; control traffic is still
     admitted. *)
  Server.submit s ~prio:Server.High
    ~on_shed:(fun () -> incr shed)
    ~work:10.0
    (fun () -> incr completed);
  Engine.run_all e ();
  Alcotest.(check int) "not shed" 0 !shed;
  Alcotest.(check int) "all three served" 3 !completed

let test_server_kill_fails_queue_fast () =
  let e = Engine.create () in
  let s = Server.create e ~capacity:1 in
  let shed = ref 0 and ran = ref 0 in
  Server.acquire s (fun lease ->
      Engine.schedule e ~delay:50.0 (fun () -> Server.release s lease));
  Server.submit s ~on_shed:(fun () -> incr shed) ~work:5.0 (fun () -> incr ran);
  Server.submit s ~on_shed:(fun () -> incr shed) ~work:5.0 (fun () -> incr ran);
  Engine.schedule e ~delay:10.0 (fun () ->
      Server.kill s;
      (* Both waiters fail the instant the node dies — no silent wait
         for a grant that will never come. *)
      Alcotest.(check int) "queue drained on death" 2 !shed;
      Alcotest.(check int) "queue empty" 0 (Server.queue_length s);
      (* Work racing in after the crash is refused on arrival. *)
      Server.submit s ~on_shed:(fun () -> incr shed) ~work:5.0 (fun () ->
          incr ran));
  Engine.schedule e ~delay:20.0 (fun () -> Server.revive s);
  Engine.schedule e ~delay:25.0 (fun () ->
      Server.submit s ~work:5.0 (fun () -> incr ran));
  Engine.run_all e ();
  Alcotest.(check int) "three shed in total" 3 !shed;
  Alcotest.(check int) "revived node serves again" 1 !ran

(* --- overload primitives --- *)

let test_overload_token_bucket () =
  let module B = Overload.Token_bucket in
  let b = B.create ~rate_per_s:1_000.0 ~burst:2.0 in
  Alcotest.(check bool) "first" true (B.try_take b ~now:0.0);
  Alcotest.(check bool) "second" true (B.try_take b ~now:0.0);
  Alcotest.(check bool) "burst spent" false (B.try_take b ~now:0.0);
  (* 1000 tokens per simulated second = one per 1000 µs. *)
  Alcotest.(check bool) "half refilled is not one" false (B.try_take b ~now:500.0);
  Alcotest.(check bool) "refilled" true (B.try_take b ~now:1_000.0);
  Alcotest.(check int) "taken" 3 (B.taken b);
  Alcotest.(check int) "denied" 2 (B.denied b)

let test_overload_breaker () =
  let module Br = Overload.Breaker in
  let b = Br.create ~threshold:2 ~cooldown:100.0 in
  Alcotest.(check bool) "closed allows" true (Br.allow b ~now:0.0);
  Br.record_failure b ~now:0.0;
  Alcotest.(check bool) "one failure stays closed" true (Br.allow b ~now:1.0);
  Br.record_failure b ~now:1.0;
  Alcotest.(check bool) "second consecutive failure trips" false
    (Br.allow b ~now:2.0);
  Alcotest.(check int) "one open" 1 (Br.opens b);
  (* Cooldown elapsed: exactly one half-open probe goes through. *)
  Alcotest.(check bool) "probe allowed" true (Br.allow b ~now:150.0);
  Alcotest.(check bool) "surplus caller refused" false (Br.allow b ~now:151.0);
  Br.record_failure b ~now:151.0;
  Alcotest.(check bool) "failed probe re-opens" false (Br.allow b ~now:200.0);
  Alcotest.(check bool) "second probe after cooldown" true (Br.allow b ~now:260.0);
  Br.record_success b;
  Alcotest.(check bool) "probe success closes" true (Br.allow b ~now:261.0);
  Alcotest.(check bool) "and stays closed" true (Br.allow b ~now:262.0);
  Alcotest.(check bool) "rejects counted" true (Br.rejects b > 0)

(* --- network --- *)

let test_network_delay_model () =
  let e = Engine.create () in
  let n = Network.create ~latency:100.0 ~per_byte:0.01 e in
  Alcotest.(check (float 1e-9)) "oneway" 110.0 (Network.oneway_delay n ~bytes:1000);
  Alcotest.(check (float 1e-9)) "roundtrip" 220.0 (Network.roundtrip n ~bytes:1000)

let test_network_send_delivers_at_delay () =
  let e = Engine.create () in
  let n = Network.create ~latency:100.0 ~per_byte:0.0 e in
  let arrived = ref (-1.0) in
  Network.send n ~src:0 ~dst:1 ~bytes:0 (fun () -> arrived := Engine.now e);
  Engine.run_all e ();
  Alcotest.(check (float 1e-9)) "arrival time" 100.0 !arrived

let test_network_local_free () =
  let e = Engine.create () in
  let n = Network.create e in
  Network.send n ~src:2 ~dst:2 ~bytes:100_000 (fun () -> ());
  Engine.run_all e ();
  Alcotest.(check int) "no bytes" 0 (Network.total_bytes n);
  Alcotest.(check int) "no messages" 0 (Network.message_count n)

let test_network_accounting () =
  let e = Engine.create () in
  let n = Network.create e in
  Network.send n ~src:0 ~dst:1 ~bytes:500 (fun () -> ());
  Network.charge n ~bytes:300;
  Engine.run_all e ();
  Alcotest.(check int) "bytes" 800 (Network.total_bytes n);
  Alcotest.(check int) "messages" 2 (Network.message_count n)

let test_network_bytes_series () =
  let e = Engine.create () in
  let n = Network.create e in
  Engine.schedule e ~delay:(Engine.seconds 1.5) (fun () ->
      Network.send n ~src:0 ~dst:1 ~bytes:64 (fun () -> ()));
  Engine.run_all e ();
  let series = Lion_kernel.Timeseries.to_array (Network.bytes_series n) in
  Alcotest.(check (float 1e-9)) "bucket 1 holds bytes" 64.0 series.(1)

(* --- fault layer --- *)

let test_fault_empty_plan_inert () =
  let f = Fault.create ~nodes:4 Fault.none in
  for src = 0 to 3 do
    for dst = 0 to 3 do
      match Fault.link f ~now:12345.0 ~src ~dst with
      | Fault.Deliver extra ->
          Alcotest.(check (float 0.0)) "no extra delay" 0.0 extra
      | _ -> Alcotest.fail "empty plan must deliver"
    done
  done;
  for n = 0 to 3 do
    Alcotest.(check bool) "all up" true (Fault.up f n);
    Alcotest.(check (float 0.0)) "no slowdown" 1.0
      (Fault.slow_factor f ~now:12345.0 n)
  done

let test_fault_partition_windows () =
  let f =
    Fault.create ~nodes:5
      [ Fault.partition ~groups:[ [ 0; 1 ]; [ 2; 3 ] ] ~from_:100.0 ~until:200.0 ]
  in
  let blocked ~now ~src ~dst =
    match Fault.link f ~now ~src ~dst with Fault.Blocked -> true | _ -> false
  in
  Alcotest.(check bool) "cross-group blocked" true (blocked ~now:150.0 ~src:0 ~dst:2);
  Alcotest.(check bool) "symmetric" true (blocked ~now:150.0 ~src:3 ~dst:1);
  Alcotest.(check bool) "in-group flows" false (blocked ~now:150.0 ~src:0 ~dst:1);
  Alcotest.(check bool) "unlisted node reaches all" false
    (blocked ~now:150.0 ~src:4 ~dst:0);
  Alcotest.(check bool) "before window" false (blocked ~now:50.0 ~src:0 ~dst:2);
  Alcotest.(check bool) "healed after window" false (blocked ~now:250.0 ~src:0 ~dst:2)

let test_fault_drop_probabilities () =
  let always =
    Fault.create ~nodes:2 [ Fault.drop ~prob:1.0 ~from_:0.0 ~until:100.0 () ]
  in
  (match Fault.link always ~now:50.0 ~src:0 ~dst:1 with
  | Fault.Dropped -> ()
  | _ -> Alcotest.fail "prob 1.0 must drop");
  (match Fault.link always ~now:150.0 ~src:0 ~dst:1 with
  | Fault.Deliver _ -> ()
  | _ -> Alcotest.fail "outside window must deliver");
  let never =
    Fault.create ~nodes:2 [ Fault.drop ~prob:0.0 ~from_:0.0 ~until:100.0 () ]
  in
  for _ = 1 to 20 do
    match Fault.link never ~now:50.0 ~src:0 ~dst:1 with
    | Fault.Deliver _ -> ()
    | _ -> Alcotest.fail "prob 0.0 must deliver"
  done

let test_fault_straggler_window () =
  let f =
    Fault.create ~nodes:3
      [
        Fault.straggler ~node:1 ~factor:4.0 ~from_:100.0 ~until:200.0;
        Fault.straggler ~node:1 ~factor:2.0 ~from_:150.0 ~until:200.0;
      ]
  in
  Alcotest.(check (float 0.0)) "before window" 1.0 (Fault.slow_factor f ~now:50.0 1);
  Alcotest.(check (float 0.0)) "inside window" 4.0 (Fault.slow_factor f ~now:120.0 1);
  Alcotest.(check (float 0.0)) "overlap multiplies" 8.0
    (Fault.slow_factor f ~now:160.0 1);
  Alcotest.(check (float 0.0)) "other node untouched" 1.0
    (Fault.slow_factor f ~now:120.0 0);
  Alcotest.(check (float 0.0)) "after window" 1.0 (Fault.slow_factor f ~now:250.0 1)

let test_fault_dropped_message_still_charged () =
  let e = Engine.create () in
  let f =
    Fault.create ~nodes:2 [ Fault.drop ~prob:1.0 ~from_:0.0 ~until:1e9 () ]
  in
  let m = Metrics.create e in
  let n = Network.create ~fault:f ~metrics:m e in
  let delivered = ref false and dropped = ref false in
  Network.send n ~src:0 ~dst:1 ~bytes:700
    ~on_drop:(fun () -> dropped := true)
    (fun () -> delivered := true);
  Engine.run_all e ();
  Alcotest.(check bool) "never delivered" false !delivered;
  Alcotest.(check bool) "on_drop fired" true !dropped;
  Alcotest.(check int) "bytes still charged" 700 (Network.total_bytes n);
  Alcotest.(check int) "drop counted" 1 (Metrics.count m Drops)

let test_fault_send_to_dead_node_drops () =
  let e = Engine.create () in
  let f = Fault.create ~nodes:2 Fault.none in
  let n = Network.create ~fault:f e in
  Fault.mark_down f 1;
  let delivered = ref false and dropped = ref false in
  Network.send n ~src:0 ~dst:1 ~bytes:64
    ~on_drop:(fun () -> dropped := true)
    (fun () -> delivered := true);
  Engine.run_all e ();
  Alcotest.(check bool) "dead dst never delivers" false !delivered;
  Alcotest.(check bool) "on_drop fired" true !dropped;
  (* A message in flight when the destination dies is also lost. *)
  Fault.mark_up f 1;
  let in_flight_lost = ref false in
  Network.send n ~src:0 ~dst:1 ~bytes:64
    ~on_drop:(fun () -> in_flight_lost := true)
    (fun () -> ());
  Engine.schedule e ~delay:1.0 (fun () -> Fault.mark_down f 1);
  Engine.run_all e ();
  Alcotest.(check bool) "in-flight delivery dropped" true !in_flight_lost

let test_fault_same_seed_replays () =
  let plan =
    [
      Fault.drop ~prob:0.5 ~from_:0.0 ~until:1e9 ();
      Fault.jitter ~extra:25.0 ~from_:0.0 ~until:1e9;
    ]
  in
  let trace f =
    List.init 200 (fun i ->
        match Fault.link f ~now:(float_of_int i) ~src:0 ~dst:1 with
        | Fault.Deliver extra -> Printf.sprintf "d%.6f" extra
        | Fault.Blocked -> "b"
        | Fault.Dropped -> "x")
  in
  let a = trace (Fault.create ~seed:7 ~nodes:2 plan) in
  let b = trace (Fault.create ~seed:7 ~nodes:2 plan) in
  let c = trace (Fault.create ~seed:8 ~nodes:2 plan) in
  Alcotest.(check (list string)) "same seed replays" a b;
  Alcotest.(check bool) "different seed diverges" true (a <> c)

let test_fault_crash_events_sorted () =
  let plan =
    Fault.crash_recover ~node:2 ~at:500.0 ~downtime:100.0
    @ [ Fault.crash ~node:0 ~at:50.0 () ]
  in
  let evs = Fault.crash_events plan in
  Alcotest.(check int) "three events" 3 (List.length evs);
  let times = List.map fst evs in
  Alcotest.(check (list (float 0.0))) "sorted by time" [ 50.0; 500.0; 600.0 ] times;
  match evs with
  | [ (_, `Crash 0); (_, `Crash 2); (_, `Recover 2) ] -> ()
  | _ -> Alcotest.fail "unexpected event shapes"

(* --- metrics --- *)

let test_metrics_counts () =
  let e = Engine.create () in
  let m = Metrics.create e in
  Metrics.record_commit m ~latency:100.0 ~single_node:true ~remastered:false
    ~phases:(Metrics.phase_times ());
  Metrics.record_commit m ~latency:200.0 ~single_node:false ~remastered:true
    ~phases:(Metrics.phase_times ());
  Metrics.incr m Aborts;
  Alcotest.(check int) "commits" 2 (Metrics.count m Commits);
  Alcotest.(check int) "aborts" 1 (Metrics.count m Aborts);
  Alcotest.(check int) "single" 1 (Metrics.count m Single_node_commits);
  Alcotest.(check int) "remastered" 1 (Metrics.count m Remastered_commits)

let test_metrics_throughput () =
  let e = Engine.create () in
  let m = Metrics.create e in
  for _ = 1 to 500 do
    Metrics.record_commit m ~latency:1.0 ~single_node:true ~remastered:false
      ~phases:(Metrics.phase_times ())
  done;
  Alcotest.(check (float 1e-6)) "per second" 500.0
    (Metrics.throughput m ~duration:(Engine.seconds 1.0))

let test_metrics_phase_fractions () =
  let e = Engine.create () in
  let m = Metrics.create e in
  Metrics.record_commit m ~latency:10.0 ~single_node:true ~remastered:false
    ~phases:(Metrics.phase_times ~execution:3.0 ~commit:1.0 ());
  Alcotest.(check (float 1e-9)) "execution fraction" 0.75
    (Metrics.phase_fraction m Metrics.Execution);
  Alcotest.(check (float 1e-9)) "commit fraction" 0.25
    (Metrics.phase_fraction m Metrics.Commit);
  Alcotest.(check (float 1e-9)) "unused phase" 0.0
    (Metrics.phase_fraction m Metrics.Remaster)

let test_metrics_series_buckets_by_time () =
  let e = Engine.create () in
  let m = Metrics.create e in
  Metrics.record_commit m ~latency:1.0 ~single_node:true ~remastered:false
    ~phases:(Metrics.phase_times ());
  Engine.schedule e ~delay:(Engine.seconds 2.5) (fun () ->
      Metrics.record_commit m ~latency:1.0 ~single_node:true ~remastered:false
        ~phases:(Metrics.phase_times ()));
  Engine.run_all e ();
  let series = Metrics.throughput_series m in
  Alcotest.(check (float 1e-9)) "t0 bucket" 1.0 series.(0);
  Alcotest.(check (float 1e-9)) "t2 bucket" 1.0 series.(2)

let test_metrics_reset_window () =
  let e = Engine.create () in
  let m = Metrics.create e in
  Metrics.record_commit m ~latency:50.0 ~single_node:true ~remastered:false
    ~phases:(Metrics.phase_times ());
  Metrics.incr m Timeouts;
  Metrics.incr m Retries;
  Metrics.incr m Drops;
  Metrics.reset_window m;
  Alcotest.(check int) "commits cleared" 0 (Metrics.count m Commits);
  Alcotest.(check (float 0.0)) "latency cleared" 0.0 (Metrics.latency_percentile m 50.0);
  Alcotest.(check int) "timeouts cleared" 0 (Metrics.count m Timeouts);
  Alcotest.(check int) "retries cleared" 0 (Metrics.count m Retries);
  Alcotest.(check int) "drops cleared" 0 (Metrics.count m Drops)

(* An empty latency window — a fresh metrics object, or right after
   [reset_window] before any commit lands — must read as 0 from the
   percentile and mean accessors, never NaN or an exception. *)
let test_metrics_empty_window_no_nan () =
  let e = Engine.create () in
  let m = Metrics.create e in
  Alcotest.(check (float 0.0)) "p50 fresh" 0.0 (Metrics.latency_percentile m 50.0);
  Alcotest.(check (float 0.0)) "mean fresh" 0.0 (Metrics.mean_latency m);
  Metrics.record_commit m ~latency:42.0 ~single_node:true ~remastered:false
    ~phases:(Metrics.phase_times ());
  Metrics.reset_window m;
  let p99 = Metrics.latency_percentile m 99.0 in
  let mean = Metrics.mean_latency m in
  Alcotest.(check bool) "no NaN after reset" false
    (Float.is_nan p99 || Float.is_nan mean);
  Alcotest.(check (float 0.0)) "p99 after reset" 0.0 p99;
  Alcotest.(check (float 0.0)) "mean after reset" 0.0 mean

let test_metrics_fault_counters () =
  let e = Engine.create () in
  let m = Metrics.create e in
  Metrics.incr m Timeouts;
  Metrics.incr m Retries;
  Metrics.incr m Retries;
  Metrics.incr m Drops;
  Metrics.incr m Drops;
  Metrics.incr m Drops;
  Alcotest.(check int) "timeouts" 1 (Metrics.count m Timeouts);
  Alcotest.(check int) "retries" 2 (Metrics.count m Retries);
  Alcotest.(check int) "drops" 3 (Metrics.count m Drops)

(* Every counter in the table has its own slot: it starts at 0, [incr]
   and [add] move it and no other, [reset_window] zeroes them all, and
   no two share a printed name. *)
let test_metrics_counter_table () =
  let m = Metrics.create (Engine.create ()) in
  let counts () = List.map (Metrics.count m) Metrics.all in
  let zeros = List.map (fun _ -> 0) Metrics.all in
  Alcotest.(check (list int)) "all start at 0" zeros (counts ());
  List.iteri
    (fun i c ->
      Metrics.incr m c;
      Metrics.add m c (i + 2);
      let expect = List.mapi (fun j _ -> if j = i then i + 3 else 0) Metrics.all in
      Alcotest.(check (list int)) (Metrics.name c ^ " moves alone") expect (counts ());
      Metrics.reset_window m;
      Alcotest.(check (list int)) (Metrics.name c ^ " reset") zeros (counts ()))
    Metrics.all;
  List.iter (fun c -> Metrics.incr m c) Metrics.all;
  Metrics.reset_window m;
  Alcotest.(check (list int)) "reset zeroes every counter" zeros (counts ());
  let names = List.map Metrics.name Metrics.all in
  Alcotest.(check int) "names pairwise distinct" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun c ->
      let n = Metrics.name c in
      match Metrics.signal c with
      | None -> ()
      | Some s ->
          Alcotest.(check bool) (n ^ " signal is m: or b: and its name") true
            (s = "m:" ^ n || s = "b:" ^ n))
    Metrics.all

(* A late commit counts itself as a deadline miss and stays out of the
   goodput series. *)
let test_metrics_late_commit () =
  let m = Metrics.create (Engine.create ()) in
  Metrics.record_commit ~late:true m ~latency:1.0 ~single_node:true ~remastered:false
    ~phases:(Metrics.phase_times ());
  Metrics.record_commit m ~latency:1.0 ~single_node:true ~remastered:false
    ~phases:(Metrics.phase_times ());
  Alcotest.(check int) "commits" 2 (Metrics.count m Commits);
  Alcotest.(check int) "one miss" 1 (Metrics.count m Deadline_misses);
  Alcotest.(check (float 1e-9)) "goodput" 1.0 (Metrics.goodput_series m).(0)

let test_metrics_availability_series () =
  let e = Engine.create () in
  let m = Metrics.create e in
  Metrics.note_availability m ~frac:1.0;
  Engine.schedule e ~delay:(Engine.seconds 1.5) (fun () ->
      Metrics.note_availability m ~frac:0.5);
  Engine.run_all e ();
  let series = Metrics.availability_series m in
  Alcotest.(check (float 1e-9)) "bucket 0" 1.0 series.(0);
  Alcotest.(check (float 1e-9)) "bucket 1" 0.5 series.(1)

let test_metrics_percentiles () =
  let e = Engine.create () in
  let m = Metrics.create e in
  for i = 1 to 100 do
    Metrics.record_commit m ~latency:(float_of_int i) ~single_node:true ~remastered:false
      ~phases:(Metrics.phase_times ())
  done;
  let p50 = Metrics.latency_percentile m 50.0 in
  Alcotest.(check bool) "p50 near middle" true (p50 > 45.0 && p50 < 56.0);
  Alcotest.(check (float 1e-6)) "mean" 50.5 (Metrics.mean_latency m)

(* --- property tests --- *)

let prop_server_conserves_work =
  QCheck.Test.make ~name:"server busy time equals total submitted work" ~count:100
    QCheck.(pair (int_range 1 4) (list_of_size (Gen.int_range 0 30) (float_range 0.0 50.0)))
    (fun (capacity, works) ->
      let e = Engine.create () in
      let s = Server.create e ~capacity in
      List.iter (fun w -> Server.submit s ~work:w (fun () -> ())) works;
      Engine.run_all e ();
      Server.completed s = List.length works
      && Float.abs (Server.busy_time s -. List.fold_left ( +. ) 0.0 works) < 1e-6)

let prop_engine_delivers_in_order =
  QCheck.Test.make ~name:"engine delivers all events in time order" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 50) (float_range 0.0 1000.0))
    (fun delays ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter (fun d -> Engine.schedule e ~delay:d (fun () -> fired := d :: !fired)) delays;
      Engine.run_all e ();
      let order = List.rev !fired in
      List.length order = List.length delays
      && order = List.sort compare delays)

let prop_timeseries_conserves_mass =
  QCheck.Test.make ~name:"timeseries buckets conserve added mass" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 50) (float_range 0.0 100.0))
    (fun times ->
      let ts = Lion_kernel.Timeseries.create ~interval:7.0 in
      List.iter (fun time -> Lion_kernel.Timeseries.incr ts ~time) times;
      let total = Array.fold_left ( +. ) 0.0 (Lion_kernel.Timeseries.to_array ts) in
      int_of_float total = List.length times)

(* The admission-control contract (docs/OVERLOAD.md): under any seeded
   arrival sequence a bounded queue never grows past its cap, and every
   submitted request resolves exactly one way — completed or shed,
   never both, never neither. *)
let prop_bounded_queue_accounting =
  QCheck.Test.make
    ~name:"bounded queue holds its cap and accounts for every request"
    ~count:200
    QCheck.(
      triple (int_range 1 3) (int_range 1 5)
        (list_of_size (Gen.int_range 0 40)
           (pair (float_range 0.0 50.0) (float_range 0.0 30.0))))
    (fun (capacity, cap, arrivals) ->
      let e = Engine.create () in
      let station = ref 0 in
      let s = Server.create ~queue_cap:cap ~on_shed:(fun () -> incr station) e ~capacity in
      let completed = ref 0 and shed = ref 0 and over_cap = ref false in
      List.iter
        (fun (at, work) ->
          Engine.schedule e ~delay:at (fun () ->
              Server.submit s
                ~on_shed:(fun () -> incr shed)
                ~work
                (fun () -> incr completed);
              if Server.queue_length s > cap then over_cap := true))
        arrivals;
      Engine.run_all e ();
      (not !over_cap)
      && Server.max_queue s <= cap
      && !completed + !shed = List.length arrivals
      && !completed = Server.completed s
      && !shed = !station)

(* [Network.send] skips the spec walk when the plan has no link spec.
   A plan whose only spec is a drop window that never opens walks every
   message through [Fault.link] and must deliver exactly the same
   messages at exactly the same times, in the same order, with the
   same drops (one endpoint may be down for the whole run). *)
let prop_send_inert_plan_matches_walk =
  QCheck.Test.make ~name:"send under an inactive spec matches an empty plan" ~count:200
    QCheck.(
      pair (int_range (-1) 3)
        (list_of_size (Gen.int_range 0 40)
           (quad (float_range 0.0 500.0) (int_range 0 3) (int_range 0 3)
              (int_range 0 4096))))
    (fun (down, sends) ->
      let run plan =
        let e = Engine.create () in
        let f = Fault.create ~nodes:4 plan in
        if down >= 0 then Fault.mark_down f down;
        let m = Metrics.create e in
        let n = Network.create ~fault:f ~metrics:m e in
        let log = ref [] in
        List.iteri
          (fun i (at, src, dst, bytes) ->
            Engine.schedule e ~delay:at (fun () ->
                Network.send n ~src ~dst ~bytes
                  ~on_drop:(fun () -> log := (`Drop, i, Engine.now e) :: !log)
                  (fun () -> log := (`Deliver, i, Engine.now e) :: !log)))
          sends;
        Engine.run_all e ();
        (List.rev !log, Metrics.count m Drops)
      in
      run Fault.none
      = run [ Fault.drop ~prob:0.5 ~from_:1e12 ~until:2e12 () ])

(* [Server.submit] grants an idle slot directly; it must behave exactly
   like [acquire], then an [Engine.schedule] of the work, then
   [release] and the continuation — completions, sheds, [queue_wait]
   and [busy_time] — whether or not the bounded queue fills. *)
let prop_submit_matches_acquire_model =
  QCheck.Test.make ~name:"submit matches acquire + schedule + release" ~count:300
    QCheck.(
      triple (int_range 1 3) (int_range 0 3)
        (list_of_size (Gen.int_range 0 40)
           (pair (float_range 0.0 60.0) (float_range 0.0 30.0))))
    (fun (capacity, queue_cap, jobs) ->
      let run submit =
        let e = Engine.create () in
        let station = ref 0 in
        let s = Server.create ~queue_cap ~on_shed:(fun () -> incr station) e ~capacity in
        let log = ref [] in
        List.iteri
          (fun i (at, work) ->
            Engine.schedule e ~delay:at (fun () ->
                submit e s ~work
                  ~on_shed:(fun () -> log := (`Shed, i, Engine.now e) :: !log)
                  (fun () -> log := (`Done, i, Engine.now e) :: !log)))
          jobs;
        Engine.run_all e ();
        ( List.rev !log,
          Server.queue_wait s,
          Server.busy_time s,
          !station,
          Server.completed s,
          Server.max_queue s )
      in
      run (fun _ s ~work ~on_shed k -> Server.submit s ~on_shed ~work k)
      = run (fun e s ~work ~on_shed k ->
            Server.acquire s ~on_shed (fun lease ->
                Engine.schedule e ~delay:work (fun () ->
                    Server.release s lease;
                    k ()))))

let () =
  Alcotest.run "lion_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "event ordering" `Quick test_engine_ordering;
          Alcotest.test_case "FIFO at equal times" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "clock advances" `Quick test_engine_clock_advances;
          Alcotest.test_case "run_until respects deadline" `Quick test_engine_run_until_deadline;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "negative delay clamped" `Quick test_engine_negative_delay_clamped;
          Alcotest.test_case "absolute scheduling" `Quick test_engine_at_absolute;
          Alcotest.test_case "unit helpers" `Quick test_engine_units;
          Alcotest.test_case "apply scheduling" `Quick test_engine_apply_scheduling;
          Alcotest.test_case "run_all exhaustion flagged" `Quick
            test_engine_run_all_exhaustion;
          Alcotest.test_case "past-dated clamps counted" `Quick
            test_engine_clamp_counting;
        ] );
      ( "server",
        [
          Alcotest.test_case "capacity 1 serializes" `Quick test_server_serial_queue;
          Alcotest.test_case "capacity 3 parallelizes" `Quick test_server_parallel_capacity;
          Alcotest.test_case "busy time accrues" `Quick test_server_busy_time_accrues;
          Alcotest.test_case "lease hold blocks next" `Quick test_server_lease_hold_blocks;
          Alcotest.test_case "lease busy time includes wait" `Quick
            test_server_lease_busy_time_includes_wait;
          Alcotest.test_case "double release raises" `Quick test_server_double_release_raises;
          Alcotest.test_case "queue length" `Quick test_server_queue_length;
          Alcotest.test_case "bounded queue rejects newest" `Quick
            test_server_bounded_queue_rejects_newest;
          Alcotest.test_case "CoDel sheds standing queue" `Quick
            test_server_codel_sheds_standing_queue;
          Alcotest.test_case "control priority first" `Quick
            test_server_priority_control_first;
          Alcotest.test_case "control priority never shed" `Quick
            test_server_priority_never_shed;
          Alcotest.test_case "kill fails queued work fast" `Quick
            test_server_kill_fails_queue_fast;
        ] );
      ( "overload",
        [
          Alcotest.test_case "token bucket" `Quick test_overload_token_bucket;
          Alcotest.test_case "circuit breaker" `Quick test_overload_breaker;
        ] );
      ( "network",
        [
          Alcotest.test_case "delay model" `Quick test_network_delay_model;
          Alcotest.test_case "delivery at delay" `Quick test_network_send_delivers_at_delay;
          Alcotest.test_case "local sends free" `Quick test_network_local_free;
          Alcotest.test_case "byte accounting" `Quick test_network_accounting;
          Alcotest.test_case "bytes series" `Quick test_network_bytes_series;
        ] );
      ( "fault",
        [
          Alcotest.test_case "empty plan inert" `Quick test_fault_empty_plan_inert;
          Alcotest.test_case "partition windows" `Quick test_fault_partition_windows;
          Alcotest.test_case "drop probabilities" `Quick test_fault_drop_probabilities;
          Alcotest.test_case "straggler window" `Quick test_fault_straggler_window;
          Alcotest.test_case "dropped message still charged" `Quick
            test_fault_dropped_message_still_charged;
          Alcotest.test_case "send to dead node drops" `Quick
            test_fault_send_to_dead_node_drops;
          Alcotest.test_case "same seed replays" `Quick test_fault_same_seed_replays;
          Alcotest.test_case "crash events sorted" `Quick test_fault_crash_events_sorted;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "commit/abort counts" `Quick test_metrics_counts;
          Alcotest.test_case "throughput" `Quick test_metrics_throughput;
          Alcotest.test_case "phase fractions" `Quick test_metrics_phase_fractions;
          Alcotest.test_case "series bucketing" `Quick test_metrics_series_buckets_by_time;
          Alcotest.test_case "reset window" `Quick test_metrics_reset_window;
          Alcotest.test_case "empty window reads 0" `Quick
            test_metrics_empty_window_no_nan;
          Alcotest.test_case "fault counters" `Quick test_metrics_fault_counters;
          Alcotest.test_case "counter table" `Quick test_metrics_counter_table;
          Alcotest.test_case "late commit" `Quick test_metrics_late_commit;
          Alcotest.test_case "availability series" `Quick test_metrics_availability_series;
          Alcotest.test_case "percentiles" `Quick test_metrics_percentiles;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_server_conserves_work;
            prop_engine_delivers_in_order;
            prop_timeseries_conserves_mass;
            prop_bounded_queue_accounting;
            prop_send_inert_plan_matches_walk;
            prop_submit_matches_acquire_model;
          ] );
    ]
