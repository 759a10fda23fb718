(* Coverage-guided fault-schedule fuzzer driver (docs/FUZZING.md).

     lion fuzz --seed 7 --rounds 40 --shrink
     lion fuzz --seed 7 --reintroduce-phantom --shrink --corpus test/corpus \
       --assert-finds-bug
     lion fuzz --replay test/corpus/some-case.json

   Fully deterministic: the same command line prints byte-identical
   output, which CI diffs across two consecutive runs. *)

open Cmdliner
module Fuzz = Lion_audit.Fuzz
module Liveness = Lion_audit.Liveness
module Protocols = Lion_harness.Protocols

let replay ~max_events path =
  match Fuzz.load_file path with
  | Error msg ->
      Printf.printf "%s: unreadable corpus case: %s\n" path msg;
      1
  | Ok (case, expect) ->
      let r = Fuzz.run_case ?max_events case in
      let got = r.Fuzz.verdict in
      Printf.printf "%s: expected %s, got %s\n" case.Fuzz.name
        (Fuzz.verdict_name expect) (Fuzz.verdict_name got);
      Printf.printf "  signals: %s\n" (String.concat " " r.Fuzz.signature);
      if got = expect then 0 else 1

let run seed rounds shrink corpus assert_clean assert_finds_bug phantom protos max_events
    replay_file =
  match replay_file with
  | Some path -> replay ~max_events path
  | None ->
      let protos = List.map (fun (p : Protocols.entry) -> p.id) protos in
      Printf.printf "fuzz: seed %d, %d rounds, protocols %s%s%s\n" seed rounds
        (String.concat "," protos)
        (if phantom then ", phantom-secondary bug re-planted" else "")
        (if shrink then ", shrinking failures" else "");
      let res =
        Fuzz.campaign ~rounds ~shrink_failures:shrink ?max_events ~log:print_endline ~seed
          ~phantom ~protos ()
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
          match corpus with
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
      if assert_finds_bug then
        if safety_repro <> None then (
          Printf.printf "\nplanted-bug gate OK\n";
          0)
        else (
          Printf.printf "\nplanted-bug gate FAILED: no safety bug with a <=3-op repro\n";
          1)
      else if assert_clean then
        if res.Fuzz.failures = [] then (
          Printf.printf "clean gate OK\n";
          0)
        else (
          Printf.printf "clean gate FAILED\n";
          1)
      else 0

let cmd =
  let open Arg in
  let rounds = value & opt int 40 & info [ "rounds" ] ~docv:"N" ~doc:"Campaign rounds." in
  let shrink = value & flag & info [ "shrink" ] ~doc:"Minimize failing schedules (ddmin)." in
  let corpus =
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR" ~doc:"Save failing schedules (shrunk when --shrink)."
  in
  let assert_clean =
    value & flag & info [ "assert-clean" ] ~doc:"Exit 1 if any schedule fails."
  in
  let assert_finds_bug =
    value & flag
    & info [ "assert-finds-bug" ]
        ~doc:"Exit 1 unless a safety bug is found and its shrunk repro has at most 3 ops."
  in
  let phantom =
    value & flag
    & info [ "reintroduce-phantom" ] ~doc:"Re-plant the phantom-secondary bug."
  in
  let max_events =
    value & opt (some int) None & info [ "max-events" ] ~docv:"N" ~doc:"Event budget per run."
  in
  let replay =
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE" ~doc:"Replay one corpus case; exit 1 on mismatch."
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Coverage-guided fault-schedule fuzzing, checked for safety and liveness")
    Term.(
      const run $ Terms.seed () $ rounds $ shrink $ corpus $ assert_clean $ assert_finds_bug
      $ phantom
      $ Terms.protos [ "lion"; "2pc"; "star" ]
      $ max_events $ replay)
