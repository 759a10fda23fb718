(** The common protocol interface.

    A protocol receives transactions from the harness's closed-loop
    clients via [submit]; [on_done] fires when the submitting client may
    issue its next transaction (for standard protocols, when the
    coordinator worker is released — commit acknowledgements are
    group-committed asynchronously, as in the Star codebase all paper
    baselines share). [tick] is the periodic maintenance hook (planners,
    load monitors); [drain] flushes buffered work at experiment end. *)

type t = {
  name : string;
  submit : Lion_workload.Txn.t -> on_done:(unit -> unit) -> unit;
  tick : unit -> unit;
  drain : unit -> unit;
}

val make :
  name:string ->
  submit:(Lion_workload.Txn.t -> on_done:(unit -> unit) -> unit) ->
  ?tick:(unit -> unit) ->
  ?drain:(unit -> unit) ->
  unit ->
  t

val join_or_fail :
  int ->
  on_ok:(unit -> unit) ->
  on_fail:(unit -> unit) ->
  (unit -> unit) * (unit -> unit)
(** Fallible barrier for quorum rounds (2PC prepare under faults).
    [join_or_fail n ~on_ok ~on_fail] returns [(ok, fail)]: [on_ok] runs
    once [ok] has been called [n] times with no intervening [fail];
    the first [fail] before completion runs [on_fail] once and disarms
    the barrier — later [ok]/[fail] calls (stragglers whose RPC
    eventually resolved) are ignored. [n = 0] runs [on_ok] immediately
    and returns inert closures. *)
