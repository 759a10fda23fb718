(* Coverage-guided fault-schedule fuzzer driver (docs/FUZZING.md).

     dune exec bin/fuzz_run.exe -- --seed 7 --rounds 40 --shrink
     dune exec bin/fuzz_run.exe -- --seed 7 --reintroduce-phantom \
       --shrink --corpus test/corpus --assert-finds-bug
     dune exec bin/fuzz_run.exe -- --replay test/corpus/some-case.json

   Fully deterministic: the same command line prints byte-identical
   output, which CI diffs across two consecutive runs. *)

module Config = Lion_store.Config
module Workloads = Lion_harness.Workloads
module Fuzz = Lion_audit.Fuzz
module Liveness = Lion_audit.Liveness
module Protocols = Lion_harness.Protocols

let target protos : Fuzz.target =
  {
    Fuzz.protos = List.map (fun (p : Protocols.entry) -> (p.id, fun cl -> p.make cl)) protos;
    workload =
      (fun ~cfg ~seed ~skew ~cross -> Workloads.ycsb ~seed ~skew ~cross cfg);
  }

let usage () =
  Printf.eprintf
    "usage: fuzz_run [--seed N] [--rounds N] [--shrink] [--corpus DIR]\n\
    \                [--assert-clean] [--assert-finds-bug]\n\
    \                [--reintroduce-phantom] [--protos a,b,c]\n\
    \                [--max-events N] [--replay FILE]\n\
     --shrink             minimize failing schedules (ddmin)\n\
     --corpus DIR         save failing schedules (shrunk when --shrink)\n\
     --assert-clean       exit 1 if any schedule fails\n\
     --assert-finds-bug   exit 1 unless a safety bug is found and its\n\
    \                     shrunk repro has at most 3 ops\n\
     --reintroduce-phantom  re-plant the phantom-secondary bug\n\
     --replay FILE        replay one corpus case; exit 1 on mismatch\n\
     protocols: %s\n"
    (String.concat ", " Protocols.ids);
  exit 2

let replay ~max_events path =
  match Fuzz.load_file path with
  | Error msg ->
      Printf.printf "%s: unreadable corpus case: %s\n" path msg;
      exit 1
  | Ok (case, expect) ->
      let r = Fuzz.run_case ?max_events ~target:(target Protocols.all) case in
      let got = r.Fuzz.verdict in
      Printf.printf "%s: expected %s, got %s\n" case.Fuzz.name
        (Fuzz.verdict_name expect) (Fuzz.verdict_name got);
      Printf.printf "  signals: %s\n" (String.concat " " r.Fuzz.signature);
      if got = expect then exit 0 else exit 1

let () =
  let seed = ref 1 in
  let rounds = ref 40 in
  let shrink = ref false in
  let corpus = ref None in
  let assert_clean = ref false in
  let assert_finds_bug = ref false in
  let phantom = ref false in
  let protos = ref "lion,2pc,star" in
  let max_events = ref None in
  let replay_file = ref None in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--rounds" :: v :: rest ->
        rounds := int_of_string v;
        parse rest
    | "--shrink" :: rest ->
        shrink := true;
        parse rest
    | "--corpus" :: v :: rest ->
        corpus := Some v;
        parse rest
    | "--assert-clean" :: rest ->
        assert_clean := true;
        parse rest
    | "--assert-finds-bug" :: rest ->
        assert_finds_bug := true;
        parse rest
    | "--reintroduce-phantom" :: rest ->
        phantom := true;
        parse rest
    | "--protos" :: v :: rest ->
        protos := v;
        parse rest
    | "--max-events" :: v :: rest ->
        max_events := Some (int_of_string v);
        parse rest
    | "--replay" :: v :: rest ->
        replay_file := Some v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let target = target (List.map Protocols.resolve (String.split_on_char ',' !protos)) in
  (match !replay_file with
  | Some path -> replay ~max_events:!max_events path
  | None -> ());
  Printf.printf "fuzz: seed %d, %d rounds, protocols %s%s%s\n" !seed !rounds
    !protos
    (if !phantom then ", phantom-secondary bug re-planted" else "")
    (if !shrink then ", shrinking failures" else "");
  let res =
    Fuzz.campaign ~rounds:!rounds ~shrink_failures:!shrink
      ?max_events:!max_events ~log:print_endline ~seed:!seed ~phantom:!phantom
      ~target ()
  in
  Printf.printf "\n%d rounds, %d distinct coverage signatures, %d failure(s)\n"
    res.Fuzz.rounds_run res.Fuzz.pool_size
    (List.length res.Fuzz.failures);
  List.iter
    (fun (r, shrunk) ->
      let case = match shrunk with Some c -> c | None -> r.Fuzz.case in
      Printf.printf "\nfailure: %s (%s, %s verdict)\n" case.Fuzz.name
        r.Fuzz.case.Fuzz.proto
        (Fuzz.verdict_name r.Fuzz.verdict);
      Printf.printf "  signals: %s\n"
        (String.concat " "
           (List.filter
              (fun s ->
                String.length s > 1 && (s.[0] = 'a' || s.[0] = 'd' || s.[0] = 'l'))
              r.Fuzz.signature));
      print_string (Fuzz.to_json ~expect:r.Fuzz.verdict case);
      match !corpus with
      | Some dir ->
          let path = Fuzz.save ~dir ~expect:r.Fuzz.verdict case in
          Printf.printf "  saved %s\n" path
      | None -> ())
    res.Fuzz.failures;
  let safety_repro =
    List.find_opt
      (fun (r, shrunk) ->
        r.Fuzz.verdict = Fuzz.Safety
        &&
        match shrunk with
        | Some c -> List.length c.Fuzz.ops <= 3
        | None -> true)
      res.Fuzz.failures
  in
  if !assert_finds_bug then
    if safety_repro <> None then (
      Printf.printf "\nplanted-bug gate OK\n";
      exit 0)
    else (
      Printf.printf "\nplanted-bug gate FAILED: no safety bug with a <=3-op repro\n";
      exit 1);
  if !assert_clean then
    if res.Fuzz.failures = [] then (
      Printf.printf "clean gate OK\n";
      exit 0)
    else (
      Printf.printf "clean gate FAILED\n";
      exit 1)
