(* Self-test of the benchmark on tiny shapes (0.3 simulated seconds,
   one measured rep, in this process): every metric BENCHMARK.json
   names is printed with its unit and a finite value, the JSON output
   round-trips, a protocol that never releases its clients fails the
   gate, an unknown workload is a usage error, and the calibration
   probe takes a positive, finite time. Reps are calibrated as if every
   probe took [Probe.ref_s]. *)

open E2e
module Json = Lion_perf.Report

let failures = ref 0

let expect what ok =
  if not ok then (
    incr failures;
    Printf.printf "FAIL %s\n%!" what)

let tiny (w : Cells.workload) =
  match w.kind with
  | Cells.Cell c ->
      {
        w with
        kind =
          Cells.Cell
            { c with rc = { c.rc with Lion_harness.Runner.warmup = 0.1; duration = 0.2 }; audit_s = 0.2 };
      }
  | Cells.Sweep s ->
      (* Calvin's first epoch ends after 0.3 s, so a tiny sweep runs
         only protocols that commit within it. *)
      let protocols = [ "2pc"; "star"; "lion" ] in
      { w with kind = Cells.Sweep { s with protocols; warmup = 0.1; duration = 0.2 } }

let listed section =
  match Json.field section (Json.read_file "../../BENCHMARK.json") with
  | Some (Json.Arr ms) -> List.map (fun m -> (Json.get_str "name" m, Json.get_str "unit" m)) ms
  | _ -> failwith ("BENCHMARK.json has no " ^ section)

let round_trips j = Json.parse_json (Bench.to_string j) = j

let check_printed (r : Bench.result) ~trace names =
  let j = Bench.summary_json ~trace [ r ] in
  expect (r.workload ^ ": summary JSON round-trips") (round_trips j);
  let metrics = Option.get (Json.field "metrics" j) in
  List.iter
    (fun (name, unit) ->
      match Json.field name metrics with
      | Some m ->
          expect
            (Printf.sprintf "%s: %s printed in %s" r.workload name unit)
            (Json.get_str "unit" m = unit && Float.is_finite (Json.get_num "value" m))
      | None -> expect (Printf.sprintf "%s: %s printed" r.workload name) false)
    names

let () =
  let out_dir = "out" in
  Bench.mkdir_p out_dir;
  let results =
    List.map
      (fun w ->
        let w = tiny w in
        let r =
          Bench.measure ~min_reps:1 ~trace:true ~seed:1 ~probe:(Fun.const Probe.ref_s)
            ~exec:(Bench.run_rep ~out_dir w)
            w
        in
        List.iter
          (fun (c : Bench.check) -> expect (w.name ^ ": check " ^ c.check ^ " " ^ c.detail) c.ok)
          r.checks;
        check_printed r ~trace:false (listed "end_to_end");
        check_printed r ~trace:true (listed "per_layer");
        r)
      Cells.workloads
  in
  let p = Probe.time () in
  expect "probe takes a positive, finite time" (Float.is_finite p && p > 0.0);
  expect "report JSON round-trips" (round_trips (Bench.report_json ~seed:1 results));
  expect "catalogue and BENCHMARK.json agree"
    (List.map (fun (m : Catalog.metric) -> (m.name, m.unit)) Catalog.all
    = listed "end_to_end" @ listed "per_layer");
  (match (tiny (Option.get (Cells.find "ycsb-2pc"))).kind with
  | Cells.Cell c ->
      let drop_on_done (p : Lion_protocols.Proto.t) =
        { p with submit = (fun txn ~on_done:_ -> p.submit txn ~on_done:ignore) }
      in
      expect "gate fails when on_done never fires" (not (fst (Cells.audit ~wrap:drop_on_done c ~seed:1)))
  | Cells.Sweep _ -> assert false);
  expect "--only nosuch exits 2" (Bench.main [| "lionbench"; "--only"; "nosuch" |] = 2);
  (match Bench.parse [| "lionbench"; "--only"; "nosuch" |] with
  | exception Bench.Usage msg ->
      expect "usage error lists every workload"
        (String.ends_with ~suffix:(String.concat ", " Cells.names) msg)
  | _ -> expect "--only nosuch is rejected" false);
  if !failures > 0 then exit 1;
  print_endline "selftest ok"
