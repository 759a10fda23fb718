(* Shared by the tests that byte-compare experiment output against a
   golden capture. *)

(* dune runtest runs the test binaries from test/; dune exec from the
   workspace root. Accept both. *)
let path name = if Sys.file_exists name then name else Filename.concat "test" name
let fig6_path = path "golden_fig6_scale005.txt"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Runs [f] with stdout redirected to a temporary file and returns what
   it printed. *)
let capture_stdout f =
  let tmp = Filename.temp_file "lion_golden" ".out" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  (try f ()
   with e ->
     restore ();
     Sys.remove tmp;
     raise e);
  restore ();
  let out = read_file tmp in
  Sys.remove tmp;
  out
