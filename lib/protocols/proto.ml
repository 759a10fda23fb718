type t = {
  name : string;
  submit : Lion_workload.Txn.t -> on_done:(unit -> unit) -> unit;
  tick : unit -> unit;
  drain : unit -> unit;
}

let make ~name ~submit ?(tick = fun () -> ()) ?(drain = fun () -> ()) () =
  { name; submit; tick; drain }

let join_or_fail n ~on_ok ~on_fail =
  if n = 0 then (
    on_ok ();
    ((fun () -> ()), fun () -> ()))
  else
    let remaining = ref n in
    let failed = ref false in
    let ok () =
      if not !failed then (
        decr remaining;
        if !remaining = 0 then on_ok ())
    in
    let fail () =
      if (not !failed) && !remaining > 0 then (
        failed := true;
        on_fail ())
    in
    (ok, fail)
