(* Unit and property tests for lion_kernel: PRNG, zipfian sampling,
   priority queue, statistics, time series, table rendering. *)

open Lion_kernel

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let root = Rng.create 7 in
  let child = Rng.split root in
  let parent_draws = List.init 50 (fun _ -> Rng.int root 1_000_000) in
  let child_draws = List.init 50 (fun _ -> Rng.int child 1_000_000) in
  Alcotest.(check bool) "streams differ" true (parent_draws <> child_draws)

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_int_in () =
  let rng = Rng.create 5 in
  for _ = 1 to 1_000 do
    let x = Rng.int_in rng 5 15 in
    Alcotest.(check bool) "inclusive range" true (x >= 5 && x <= 15)
  done

let test_rng_float_unit () =
  let rng = Rng.create 9 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng 1.0 in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 11 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_rng_mean () =
  let rng = Rng.create 13 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_rng_gaussian_moments () =
  let rng = Rng.create 17 in
  let n = 50_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng ~mu:3.0 ~sigma:2.0 in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.0) < 0.05);
  Alcotest.(check bool) "variance near 4" true (Float.abs (var -. 4.0) < 0.15)

let test_shuffle_permutation () =
  let rng = Rng.create 19 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 100 (fun i -> i)) sorted

let test_rng_choose_and_exponential () =
  let rng = Rng.create 21 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "choose from array" true (Array.mem (Rng.choose rng a) a)
  done;
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.exponential rng 5.0 in
    Alcotest.(check bool) "non-negative" true (x >= 0.0);
    sum := !sum +. x
  done;
  Alcotest.(check bool) "mean near 5" true
    (Float.abs ((!sum /. float_of_int n) -. 5.0) < 0.25)

let test_stats_mean_of () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean_of [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.mean_of [])

(* The first 16 draws of [int] (bound [max_int]), [float] (bound 1.0),
   [bool], and [split] (one split per step, read through the child's
   first [int] draw) for three seeds. Every simulated result depends
   on this stream, so it is pinned to literals rather than checked
   only for agreement between two generators. *)
type golden = { ints : int array; floats : float array; bools : bool array; splits : int array }

let rng_golden =
  [
    ( 0,
      {
        ints =
          [|
            4073552104164651883; 1990071630548588925; 121904254867886419;
            4477402844195135611; 490437550606523686; 1509523650315790522;
            801824006500076728; 3558130466400086735; 1133040290248155824;
            4390466628494765097; 1828385819961610050; 3509651801762101181;
            2416295617881896670; 2560258272037612107; 3266099039056368454;
            2391077038489821226;
          |];
        floats =
          [|
            0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6;
            0x1.f1177150e499p-1; 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2;
            0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1; 0x1.f72bc4820e4c4p-3;
            0x1.e77091186d196p-1; 0x1.95fbb374f2c4ep-2; 0x1.85a64dc00ab7bp-1;
            0x1.0c43407fc177bp-1; 0x1.1c3eeaab30755p-1; 0x1.6a9c1e2c01989p-1;
            0x1.09767f2f2e3bp-1;
          |];
        bools =
          [|
            true; false; true; false; true; false; true; false;
            true; false; true; false; true; true; true; true;
          |];
        splits =
          [|
            1558991776508477819; 2442876978393746326; 2669000434556329607;
            318494087943405462; 4402042803381354480; 1943574106500607562;
            2359489906686667812; 2581454134034343743; 4431752818682075842;
            34100527527005035; 3022128160370884655; 3231189363788106035;
            1447414602484729711; 2855234423034810074; 2841308713825637329;
            1565844006573864618;
          |];
      } );
    ( 1,
      {
        ints =
          [|
            3457603482011350492; 1717361541646166673; 2021227762714211881;
            4400086718694418251; 931835874657720878; 2747494643000335897;
            2101864950107900286; 857522058586991323; 1452024965492620143;
            4068567495939744465; 2375297743655821729; 2460862104762392994;
            4255540332154841467; 930770776204252489; 714345195597446422;
            2518289453620838583;
          |];
        floats =
          [|
            0x1.7fdf0061bb85ap-1; 0x1.7d54b3920bcaap-2; 0x1.c0cd7f0f6bcf6p-2;
            0x1.e881fc76c58f3p-1; 0x1.9dd1794f3e0b4p-3; 0x1.31087e915296fp-1;
            0x1.d2b5309350688p-2; 0x1.7cd0f89b24754p-3; 0x1.426a103512fbap-2;
            0x1.c3b3a4a6a1831p-1; 0x1.07b605b43323p-1; 0x1.1135e85e5ca9p-1;
            0x1.d875bb150b7f4p-1; 0x1.9d5862dd5f028p-3; 0x1.3d3ba575d2f78p-3;
            0x1.179617532576p-1;
          |];
        bools =
          [|
            false; true; true; false; true; false; false; false;
            true; false; false; true; false; true; true; false;
          |];
        splits =
          [|
            4339281941979455995; 1391299123406820051; 1417007850453426237;
            1554089943986380381; 949687826934003247; 648995657791945184;
            160324482413054671; 1995478261059698654; 457814980740196634;
            3995948329676669337; 2967204382541216653; 1835091278482929523;
            2997613987862879563; 1126531799859285001; 4411803297724487305;
            2510695561808310957;
          |];
      } );
    ( 42,
      {
        ints =
          [|
            2749113066540076570; 739554815828047797; 767374426118319285;
            221479889520321091; 4523206237176398889; 1084310982420964528;
            1288224301085851122; 705096088656582996; 3508032700170470195;
            1124334894917578461; 3525383132830741061; 4086949034143292357;
            4150417550033776723; 370735096921512237; 175046579690018138;
            3938296023606899261;
          |];
        floats =
          [|
            0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3;
            0x1.896d649de031p-5; 0x1.f62d40dca5d82p-1; 0x1.e187e2fea8348p-3;
            0x1.1e0b12d313f7cp-2; 0x1.392025051c93p-3; 0x1.8578493c50ec1p-1;
            0x1.f34e1428846dcp-3; 0x1.87656a3f8c3d9p-1; 0x1.c5be13f199e4dp-1;
            0x1.ccc9f62cda7b8p-1; 0x1.494766cf71b6p-4; 0x1.36f1f7e8c90ap-5;
            0x1.b53d1af09b619p-1;
          |];
        bools =
          [|
            true; true; true; false; true; true; true; false;
            true; true; false; false; false; false; false; true;
          |];
        splits =
          [|
            933631369328210195; 238878687638062903; 2971277477668741067;
            2336215669959865781; 1670432612978786612; 4490812022443545457;
            843897392032972668; 841192260638776802; 2752194746923212899;
            4332002957534440313; 748917982327307671; 4325850520526138318;
            2063810864527232204; 4472048752535541494; 1479957198545004531;
            481783941198122157;
          |];
      } );
  ]

let test_rng_golden_stream () =
  List.iter
    (fun (seed, g) ->
      let name what = Printf.sprintf "seed %d %s" seed what in
      let r = Rng.create seed in
      Array.iter (fun x -> Alcotest.(check int) (name "int") x (Rng.int r max_int)) g.ints;
      let r = Rng.create seed in
      Array.iter
        (fun x ->
          let y = Rng.float r 1.0 in
          if not (Float.equal x y) then Alcotest.failf "%s: %h <> %h" (name "float") x y)
        g.floats;
      let r = Rng.create seed in
      Array.iter (fun x -> Alcotest.(check bool) (name "bool") x (Rng.bool r)) g.bools;
      let r = Rng.create seed in
      Array.iter
        (fun x -> Alcotest.(check int) (name "split") x (Rng.int (Rng.split r) max_int))
        g.splits)
    rng_golden

(* --- zipf --- *)

let test_zipf_uniform_when_theta0 () =
  let rng = Rng.create 23 in
  let z = Zipf.create ~n:10 ~theta:0.0 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let x = Zipf.sample z rng in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (abs (c - 5000) < 600))
    counts

let test_zipf_skew_orders_ranks () =
  let rng = Rng.create 29 in
  let z = Zipf.create ~n:1000 ~theta:0.99 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 100_000 do
    let x = Zipf.sample z rng in
    counts.(x) <- counts.(x) + 1
  done;
  Alcotest.(check bool) "rank0 beats rank10" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "rank0 beats rank100" true (counts.(0) > counts.(100));
  Alcotest.(check bool) "rank0 is heavy" true (counts.(0) > 5_000)

let test_zipf_range_property =
  QCheck.Test.make ~name:"zipf samples stay in range" ~count:200
    QCheck.(pair (int_range 1 5000) (float_range 0.0 1.2))
    (fun (n, theta) ->
      let rng = Rng.create 31 in
      let z = Zipf.create ~n ~theta in
      List.for_all
        (fun _ ->
          let x = Zipf.sample z rng in
          x >= 0 && x < n)
        (List.init 50 Fun.id))

let zipf_draws z =
  let rng = Rng.create 41 in
  List.init 2000 (fun _ -> Zipf.sample z rng)

(* n on both sides of the 10^4 terms summed directly, at the skews the
   workloads use; 12 pairs, more than the memo keeps. *)
let zipf_grid =
  List.concat_map (fun n -> List.map (fun theta -> (n, theta)) [ 0.6; 0.8; 0.99 ])
    [ 977; 10_000; 10_001; 1_234_567 ]

(* A first [create] (a miss), a repeat (a hit) and a rebuild after the
   pair has been pushed out all hold the directly summed constant and
   draw one stream. *)
let test_zipf_memo_matches_sum () =
  let check (n, theta) =
    let name = Printf.sprintf "n=%d theta=%g" n theta in
    let first = Zipf.create ~n ~theta in
    let again = Zipf.create ~n ~theta in
    let direct = Zipf.zeta n theta in
    Alcotest.(check (float 0.0)) (name ^ " first") direct (Zipf.zetan first);
    Alcotest.(check (float 0.0)) (name ^ " repeat") direct (Zipf.zetan again);
    Alcotest.(check (list int)) (name ^ " draws") (zipf_draws first) (zipf_draws again);
    zipf_draws first
  in
  let streams = List.map check zipf_grid in
  let evicted = List.hd zipf_grid in
  Alcotest.(check (list int)) "rebuilt after eviction" (List.hd streams)
    (zipf_draws (Zipf.create ~n:(fst evicted) ~theta:(snd evicted)))

(* Generators built on two domains at once, each pair twice so the two
   may race on one miss, draw what sequentially built ones draw. *)
let test_zipf_memo_domains () =
  let pairs = List.concat_map (fun p -> [ p; p ]) [ (50_111, 0.61); (50_113, 0.83); (9_973, 0.97) ] in
  let build (n, theta) = zipf_draws (Zipf.create ~n ~theta) in
  let parallel = Lion_harness.Pool.map ~domains:2 build pairs in
  Alcotest.(check (list (list int))) "same streams" (List.map build pairs) parallel

(* [Ycsb.set_params] swaps the key generator when theta changes; a
   round trip 0.6 -> 0.99 -> 0.6, or a single switch, leaves the
   generator drawing what a fresh one with the final parameters draws. *)
let test_ycsb_set_params_round_trip () =
  let module Ycsb = Lion_workload.Ycsb in
  let p = Ycsb.default_params ~partitions:8 ~nodes:4 in
  let skewed = { p with Ycsb.key_theta = 0.99 } in
  let draws g = List.init 500 (fun _ -> Array.to_list (Ycsb.next g).Lion_workload.Txn.ops) in
  let switched = Ycsb.create p in
  Ycsb.set_params switched skewed;
  Alcotest.(check bool) "0.6 -> 0.99" true (draws switched = draws (Ycsb.create skewed));
  let round = Ycsb.create p in
  Ycsb.set_params round skewed;
  Ycsb.set_params round p;
  Alcotest.(check bool) "0.6 -> 0.99 -> 0.6" true (draws round = draws (Ycsb.create p))

(* [Zipf.scaled_pow25] must truncate as [scale *. Float.pow b 2.5] does,
   across the b range a draw reaches and the key counts the workloads
   use. *)
let test_zipf_fast_pow_exact () =
  let rng = Rng.create 2024 in
  let mismatches = ref 0 in
  List.iter
    (fun scale ->
      for _ = 1 to 250_000 do
        let b = Rng.float rng 1.0 in
        if int_of_float (Zipf.scaled_pow25 scale b) <> int_of_float (scale *. Float.pow b 2.5)
        then incr mismatches
      done)
    [ 1e6; 1e5; 1234.0; 3e4 ];
  Alcotest.(check int) "1e6 draws truncate alike" 0 !mismatches

(* Values of b a few ulps either side of b^2.5 * scale = k for 2000
   integers k, all within 1e-12 of a truncation boundary. With the
   margin the fast path truncates as [Float.pow] on every one; with the
   margin at 0 it does not, which is what the margin is for. *)
let test_zipf_fast_pow_boundaries () =
  let scale = 1e6 in
  let misses margin =
    let n = ref 0 in
    for i = 1 to 2000 do
      let b = ref (Float.pow (float_of_int (i * 499) /. scale) 0.4) in
      for _ = 1 to 8 do
        b := Float.pred !b
      done;
      for _ = 1 to 17 do
        if int_of_float (Zipf.scaled_pow25 ?margin scale !b)
           <> int_of_float (scale *. Float.pow !b 2.5)
        then incr n;
        b := Float.succ !b
      done
    done;
    !n
  in
  Alcotest.(check int) "default margin: no mismatch" 0 (misses None);
  Alcotest.(check bool) "margin 0: mismatches" true (misses (Some 0.0) > 0)

(* --- pqueue --- *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q k k) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = List.init 5 (fun _ -> fst (Option.get (Pqueue.pop q))) in
  Alcotest.(check (list (float 1e-9))) "ascending" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] order

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q 1.0 "a";
  Pqueue.push q 1.0 "b";
  Pqueue.push q 1.0 "c";
  let order = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  Alcotest.(check (list string)) "insertion order among ties" [ "a"; "b"; "c" ] order

let test_pqueue_empty () =
  let q : int Pqueue.t = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Alcotest.(check bool) "pop none" true (Pqueue.pop q = None);
  Alcotest.(check bool) "peek none" true (Pqueue.peek q = None)

let test_pqueue_peek_does_not_remove () =
  let q = Pqueue.create () in
  Pqueue.push q 2.0 "x";
  ignore (Pqueue.peek q);
  Alcotest.(check int) "still one element" 1 (Pqueue.length q)

let test_pqueue_heap_property =
  QCheck.Test.make ~name:"pqueue pops sorted" ~count:100
    QCheck.(list (float_range 0.0 1000.0))
    (fun keys ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.push q k ()) keys;
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some (k, ()) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

let test_pqueue_to_list_preserves () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q (float_of_int k) k) [ 3; 1; 2 ];
  let snapshot = Pqueue.to_list q in
  Alcotest.(check int) "queue intact" 3 (Pqueue.length q);
  Alcotest.(check (list int)) "sorted snapshot" [ 1; 2; 3 ] (List.map snd snapshot)

(* The raw int-keyed API is what the engine's hot loop runs on: pops
   must come out nondecreasing, and among equal keys strictly in push
   order, across interleaved pushes and pops. Keys are drawn from a
   tiny range so collisions (the FIFO-critical case) are common. *)
let test_pqueue_raw_heap_property =
  QCheck.Test.make ~name:"raw int heap pops nondecreasing, FIFO at ties" ~count:300
    QCheck.(list (pair (int_range 0 7) bool))
    (fun script ->
      let q = Pqueue.create () in
      let counter = ref 0 in
      let popped = ref [] in
      let push key =
        incr counter;
        Pqueue.push_key q key (key, !counter)
      in
      let pop () =
        if not (Pqueue.is_empty q) then popped := Pqueue.pop_min q :: !popped
      in
      List.iter (fun (key, do_pop) -> push key; if do_pop then pop ()) script;
      let script_pops = List.length !popped in
      while not (Pqueue.is_empty q) do pop () done;
      let order = List.rev !popped in
      (* Every pushed element came back out... *)
      List.length order = !counter
      (* ...and by push order at equal keys. Pops interleaved with
         pushes can't be globally key-sorted, but an equal-key pair is
         always popped in push order: the earlier element is in the
         heap whenever the later one is. *)
      && List.for_all
           (fun ((k, s), later) ->
             List.for_all (fun (k', s') -> k' <> k || s' > s) later)
           (List.mapi
              (fun i e -> (e, List.filteri (fun j _ -> j > i) order))
              order)
      &&
      (* The final drain (no pushes interleaved) is key-sorted. *)
      let rec sorted = function
        | (k1, _) :: ((k2, _) :: _ as rest) -> k1 <= k2 && sorted rest
        | _ -> true
      in
      sorted (List.filteri (fun i _ -> i >= script_pops) order))

(* The heap can only replicate the old float heap's drain order if the
   int key cast is order-preserving and exactly invertible. *)
let test_pqueue_key_bijection =
  QCheck.Test.make ~name:"key_of_time order-isomorphic and exact" ~count:500
    QCheck.(pair (float_range 0.0 1e12) (float_range 0.0 1e12))
    (fun (a, b) ->
      let ka = Pqueue.key_of_time a and kb = Pqueue.key_of_time b in
      Pqueue.time_of_key ka = a
      && Pqueue.time_of_key kb = b
      && compare ka kb = compare a b)

let test_pqueue_raw_drain_matches_float_api () =
  (* Same keys through both APIs must drain in the same order. *)
  let keys = [ 7.25; 0.0; 3.5; 3.5; 1e9; 0.0; 42.125; 3.5 ] in
  let qf = Pqueue.create () and qi = Pqueue.create () in
  List.iteri (fun i k -> Pqueue.push qf k i) keys;
  List.iteri (fun i k -> Pqueue.push_key qi (Pqueue.key_of_time k) i) keys;
  let rec drain q acc =
    if Pqueue.is_empty q then List.rev acc else drain q (Pqueue.pop_min q :: acc)
  in
  Alcotest.(check (list int)) "identical drain order" (drain qf []) (drain qi [])

let test_pqueue_negative_key_rejected () =
  let q = Pqueue.create () in
  Alcotest.check_raises "negative key" (Invalid_argument "Pqueue.push: key must be >= 0")
    (fun () -> Pqueue.push q (-1.0) ())

(* --- stats --- *)

let test_running_moments () =
  let r = Stats.Running.create () in
  List.iter (Stats.Running.add r) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Running.mean r);
  Alcotest.(check (float 1e-6)) "stddev (sample)" (sqrt (32.0 /. 7.0)) (Stats.Running.stddev r);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.Running.min r);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.Running.max r)

let test_running_empty () =
  let r = Stats.Running.create () in
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Stats.Running.mean r);
  Alcotest.(check (float 0.0)) "variance of empty" 0.0 (Stats.Running.variance r)

let test_percentiles_exact () =
  let sorted = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile_of_sorted sorted 0.0);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Stats.percentile_of_sorted sorted 50.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile_of_sorted sorted 100.0);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 2.0 (Stats.percentile_of_sorted sorted 25.0)

let test_reservoir_small_is_exact () =
  let r = Stats.Reservoir.create ~capacity:100 (Rng.create 1) in
  for i = 1 to 50 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "median" 25.5 (Stats.Reservoir.percentile r 50.0);
  Alcotest.(check int) "count" 50 (Stats.Reservoir.count r)

let test_reservoir_large_approximates () =
  let r = Stats.Reservoir.create ~capacity:1024 (Rng.create 2) in
  for i = 1 to 100_000 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  let p50 = Stats.Reservoir.percentile r 50.0 in
  Alcotest.(check bool) "p50 near 50000" true (Float.abs (p50 -. 50_000.0) < 5_000.0);
  Alcotest.(check int) "count tracks all" 100_000 (Stats.Reservoir.count r)

(* A reference reservoir: the same Algorithm R over its own copy of the
   seeded stream, read through a polymorphic [Array.sort compare] of
   the retained samples. *)
type ref_reservoir = {
  cap : int;
  kept : float array;
  mutable filled : int;
  mutable seen : int;
  ref_rng : Rng.t;
}

let ref_add m x =
  m.seen <- m.seen + 1;
  if m.filled < m.cap then (
    m.kept.(m.filled) <- x;
    m.filled <- m.filled + 1)
  else (
    let j = Rng.int m.ref_rng m.seen in
    if j < m.cap then m.kept.(j) <- x)

let ref_percentile m p =
  if m.filled = 0 then 0.0
  else (
    let sorted = Array.sub m.kept 0 m.filled in
    Array.sort compare sorted;
    Stats.percentile_of_sorted sorted p)

let ranks = [ 0.0; 1.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0; 99.9; 100.0 ]
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let special_float =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0.0; -0.0; Float.nan; -.Float.nan; 1.0; 2.0; infinity; neg_infinity ];
        map float_of_int (int_range (-3) 3);
        float_range (-1e3) 1e3;
      ])

(* The float sort leaves every element where [Array.sort compare] does,
   bit for bit: which zero comes first and which NaN, too. *)
let test_sort_floats_matches_stdlib =
  QCheck.Test.make ~name:"sort_floats permutes as Array.sort compare" ~count:500
    QCheck.(make ~print:(fun a -> String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a)))
      Gen.(array_size (int_range 0 300) special_float))
    (fun a ->
      let want = Array.copy a and got = Array.copy a in
      Array.sort compare want;
      Stats.sort_floats got;
      Array.for_all2 same_bits want got)

(* Duplicates, both zeros, NaNs of both signs and infinities, through
   overflowing capacities and resets: every rank read from the reservoir,
   one at a time or all from one sort, equals the reference bit for bit. *)
let test_reservoir_matches_reference =
  let sample = special_float in
  let action = QCheck.Gen.(frequency [ (30, map Option.some sample); (1, return None) ]) in
  QCheck.Test.make ~name:"reservoir percentiles equal the sort-compare reference" ~count:300
    QCheck.(
      make
        ~print:(fun (cap, seed, xs) ->
          Printf.sprintf "cap=%d seed=%d %s" cap seed
            (String.concat " "
               (List.map (function None -> "reset" | Some x -> Printf.sprintf "%h" x) xs)))
        Gen.(triple (int_range 1 48) (int_range 0 1000) (list_size (int_range 0 200) action)))
    (fun (cap, seed, xs) ->
      let r = Stats.Reservoir.create ~capacity:cap (Rng.create seed) in
      let m = { cap; kept = Array.make cap 0.0; filled = 0; seen = 0; ref_rng = Rng.create seed } in
      let agrees () =
        let all = Stats.Reservoir.percentiles r (Array.of_list ranks) in
        List.for_all2
          (fun p one ->
            let want = ref_percentile m p in
            same_bits want (Stats.Reservoir.percentile r p) && same_bits want one)
          ranks (Array.to_list all)
      in
      List.for_all
        (fun x ->
          (match x with
          | Some x ->
              Stats.Reservoir.add r x;
              ref_add m x
          | None ->
              Stats.Reservoir.reset r;
              m.filled <- 0;
              m.seen <- 0);
          agrees ())
        xs)

let test_cosine_similarity () =
  Alcotest.(check (float 1e-9)) "identical" 1.0
    (Stats.cosine_similarity [| 1.0; 2.0 |] [| 2.0; 4.0 |]);
  Alcotest.(check (float 1e-9)) "orthogonal" 0.0
    (Stats.cosine_similarity [| 1.0; 0.0 |] [| 0.0; 1.0 |]);
  Alcotest.(check (float 1e-9)) "zero vector" 0.0
    (Stats.cosine_similarity [| 0.0; 0.0 |] [| 1.0; 1.0 |]);
  Alcotest.(check (float 1e-9)) "opposite" (-1.0)
    (Stats.cosine_similarity [| 1.0; 1.0 |] [| -1.0; -1.0 |])

(* --- timeseries --- *)

let test_timeseries_bucketing () =
  let ts = Timeseries.create ~interval:10.0 in
  Timeseries.add ts ~time:0.0 1.0;
  Timeseries.add ts ~time:9.99 1.0;
  Timeseries.add ts ~time:10.0 5.0;
  Timeseries.add ts ~time:25.0 2.0;
  Alcotest.(check (float 1e-9)) "bucket 0" 2.0 (Timeseries.get ts 0);
  Alcotest.(check (float 1e-9)) "bucket 1" 5.0 (Timeseries.get ts 1);
  Alcotest.(check (float 1e-9)) "bucket 2" 2.0 (Timeseries.get ts 2);
  Alcotest.(check int) "bucket count" 3 (Timeseries.bucket_count ts)

let test_timeseries_negative_clamped () =
  let ts = Timeseries.create ~interval:1.0 in
  Timeseries.add ts ~time:(-5.0) 3.0;
  Alcotest.(check (float 1e-9)) "clamped to bucket 0" 3.0 (Timeseries.get ts 0)

let test_timeseries_last_n_padding () =
  let ts = Timeseries.create ~interval:1.0 in
  Timeseries.incr ts ~time:0.5;
  Timeseries.incr ts ~time:1.5;
  let w = Timeseries.last_n ts 4 in
  Alcotest.(check (array (float 1e-9))) "left-padded" [| 0.0; 0.0; 1.0; 1.0 |] w

let test_timeseries_range () =
  let ts = Timeseries.create ~interval:1.0 in
  for i = 0 to 9 do
    Timeseries.add ts ~time:(float_of_int i) (float_of_int i)
  done;
  Alcotest.(check (array (float 1e-9)))
    "middle slice" [| 3.0; 4.0; 5.0 |]
    (Timeseries.range ts ~lo:3 ~hi:5);
  Alcotest.(check (array (float 1e-9)))
    "out of range pads" [| 0.0; 0.0 |]
    (Timeseries.range ts ~lo:20 ~hi:21)

let test_timeseries_sum_range () =
  let ts = Timeseries.create ~interval:1.0 in
  for i = 0 to 9 do
    Timeseries.incr ts ~time:(float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "sum of 10" 10.0 (Timeseries.sum_range ts 0 9);
  Alcotest.(check (float 1e-9)) "partial" 3.0 (Timeseries.sum_range ts 2 4)

let test_timeseries_growth () =
  let ts = Timeseries.create ~interval:1.0 in
  Timeseries.incr ts ~time:5000.0;
  Alcotest.(check int) "grows to bucket" 5001 (Timeseries.bucket_count ts);
  Alcotest.(check (float 1e-9)) "value present" 1.0 (Timeseries.get ts 5000)

(* --- table --- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_table_renders_aligned () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "xxx"; "y" ];
  let s = Table.render t in
  Alcotest.(check bool) "has cell" true (contains s "xxx");
  Alcotest.(check bool) "has header" true (contains s "bb")

let test_table_pads_short_rows () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b"; "c" ] in
  Table.add_row t [ "only" ];
  ignore (Table.render t)

let test_table_cell_formatting () =
  Alcotest.(check string) "float cell" "3.1" (Table.cell_float 3.14159);
  Alcotest.(check string) "float decimals" "3.14" (Table.cell_float ~decimals:2 3.14159);
  Alcotest.(check string) "int cell" "42" (Table.cell_int 42)

(* The renderers print what create/add_row/print would: by_metric is
   by_row transposed, and grid puts one value per cell. *)
let test_table_renderers () =
  let cols =
    [ ("x2", fun v -> string_of_int (2 * v)); ("x3", fun v -> string_of_int (3 * v)) ]
  in
  let rows = [ ("a", 1); ("b", 5) ] in
  let by_hand title header body =
    let t = Table.create ~title ~columns:header in
    List.iter (Table.add_row t) body;
    Table.render t ^ "\n"
  in
  let check name want f = Alcotest.(check string) name want (Golden.capture_stdout f) in
  check "by_row"
    (by_hand "R" [ "k"; "x2"; "x3" ] [ [ "a"; "2"; "3" ]; [ "b"; "10"; "15" ] ])
    (fun () -> Table.by_row ~title:"R" "k" cols rows);
  check "by_metric"
    (by_hand "M" [ "metric"; "a"; "b" ] [ [ "x2"; "2"; "10" ]; [ "x3"; "3"; "15" ] ])
    (fun () -> Table.by_metric ~title:"M" "metric" cols rows);
  check "grid"
    (by_hand "G" [ "k"; "c1"; "c2" ] [ [ "a"; "1"; "2" ]; [ "b"; "3"; "4" ] ])
    (fun () ->
      Table.grid ~title:"G" "k" [ "c1"; "c2" ] string_of_int [ ("a", [ 1; 2 ]); ("b", [ 3; 4 ]) ])

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "lion_kernel"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_bounds;
          Alcotest.test_case "int_in inclusive" `Quick test_rng_int_in;
          Alcotest.test_case "float in unit" `Quick test_rng_float_unit;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "uniform mean" `Slow test_rng_mean;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "choose and exponential" `Quick test_rng_choose_and_exponential;
          Alcotest.test_case "golden stream" `Quick test_rng_golden_stream;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "theta 0 is uniform" `Slow test_zipf_uniform_when_theta0;
          Alcotest.test_case "skew orders ranks" `Slow test_zipf_skew_orders_ranks;
          Alcotest.test_case "memo equals the direct sum" `Quick test_zipf_memo_matches_sum;
          Alcotest.test_case "memo shared across domains" `Quick test_zipf_memo_domains;
          Alcotest.test_case "ycsb set_params round trip" `Quick
            test_ycsb_set_params_round_trip;
        ] );
      ( "zipf-pow",
        [
          Alcotest.test_case "equals Float.pow over 1e6 draws" `Quick test_zipf_fast_pow_exact;
          Alcotest.test_case "exact at truncation boundaries" `Quick
            test_zipf_fast_pow_boundaries;
        ] );
      qsuite "zipf-props" [ test_zipf_range_property ];
      ( "pqueue",
        [
          Alcotest.test_case "orders by key" `Quick test_pqueue_ordering;
          Alcotest.test_case "FIFO among ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "empty behaviour" `Quick test_pqueue_empty;
          Alcotest.test_case "peek non-destructive" `Quick test_pqueue_peek_does_not_remove;
          Alcotest.test_case "to_list sorted snapshot" `Quick test_pqueue_to_list_preserves;
          Alcotest.test_case "raw drain matches float API" `Quick
            test_pqueue_raw_drain_matches_float_api;
          Alcotest.test_case "negative key rejected" `Quick
            test_pqueue_negative_key_rejected;
        ] );
      qsuite "pqueue-props"
        [
          test_pqueue_heap_property;
          test_pqueue_raw_heap_property;
          test_pqueue_key_bijection;
        ];
      ( "stats",
        [
          Alcotest.test_case "running moments" `Quick test_running_moments;
          Alcotest.test_case "running empty" `Quick test_running_empty;
          Alcotest.test_case "percentiles" `Quick test_percentiles_exact;
          Alcotest.test_case "reservoir exact when small" `Quick test_reservoir_small_is_exact;
          Alcotest.test_case "reservoir approximates" `Slow test_reservoir_large_approximates;
          Alcotest.test_case "cosine similarity" `Quick test_cosine_similarity;
          Alcotest.test_case "mean_of" `Quick test_stats_mean_of;
        ] );
      qsuite "stats-props" [ test_sort_floats_matches_stdlib; test_reservoir_matches_reference ];
      ( "timeseries",
        [
          Alcotest.test_case "bucketing" `Quick test_timeseries_bucketing;
          Alcotest.test_case "negative time clamped" `Quick test_timeseries_negative_clamped;
          Alcotest.test_case "last_n pads" `Quick test_timeseries_last_n_padding;
          Alcotest.test_case "range slice" `Quick test_timeseries_range;
          Alcotest.test_case "sum_range" `Quick test_timeseries_sum_range;
          Alcotest.test_case "sparse growth" `Quick test_timeseries_growth;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders" `Quick test_table_renders_aligned;
          Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "cell formatting" `Quick test_table_cell_formatting;
          Alcotest.test_case "renderers" `Quick test_table_renderers;
        ] );
    ]
