(** Coverage-guided, fully seeded fault-schedule fuzzer.

    Generates random fault schedules over the whole existing
    vocabulary — crash/recover, partition, straggler, link delay,
    message loss, overload bursts, join/decommission, crash-rejoin
    cycles — and runs each through the audit harness ({!Drive}):
    safety checker, divergence audit and liveness audit. Schedules
    that light up new coverage (the {!Lion_sim.Metrics.signal}s of
    the counters that fired, anomaly classes) enter a pool; later
    rounds mutate pool entries instead of starting fresh. A failing
    schedule is minimized by a delta-debugging shrinker and can be
    serialized to a corpus file that replays deterministically. See
    docs/FUZZING.md.

    Every number — schedule shapes, mutation picks, cluster seeds —
    flows from the campaign seed through one {!Lion_kernel.Rng}, so a
    campaign replays byte-for-byte. All op fields are integers (whole
    µs, percents) so corpus files round-trip exactly. *)

(** One scheduled fault or membership operation. Times are absolute
    simulated µs from the run's start; all fields are integers so a
    JSON round-trip is exact. Each fault op builds its plan with the
    {!Lion_sim.Fault} recipe of the same name ([Straggle] is
    [slow_node], [Burst] is [overload_burst]); [Slow_link] is a bare
    [Delay] spec. *)
type op =
  | Crash of { node : int; at_us : int; downtime_us : int }
      (** crash [node], recover after [downtime_us] (possibly past the
          client horizon — the recovery then lands during the drain) *)
  | Isolate of { node : int; at_us : int; dur_us : int }
      (** partition [node] away from everyone else *)
  | Straggle of { node : int; factor : int; at_us : int; dur_us : int }
      (** multiply [node]'s CPU work by [factor] *)
  | Slow_link of { dst : int; extra_us : int; at_us : int; dur_us : int }
      (** deterministic extra one-way latency into [dst] *)
  | Lossy of { pct : int; at_us : int; dur_us : int }
      (** drop every message with probability [pct]/100 *)
  | Burst of { node : int; at_us : int; dur_us : int }
      (** {!Lion_sim.Fault.overload_burst} on [node] *)
  | Join of { node : int; at_us : int }
      (** activate standby slot [node] ({!Lion_store.Cluster.join_node}) *)
  | Decommission of { node : int; at_us : int }
      (** start draining [node] *)
  | Crash_rejoin of { node : int; at_us : int; cycles : int }
      (** {!Lion_sim.Fault.crash_rejoin}: crash/rejoin cycles tuned to
          catch replication streams mid-flight (docs/MEMBERSHIP.md) *)

type case = {
  name : string;
  seed : int;  (** cluster + workload seed *)
  proto : string;  (** protocol registry id ({!Lion_harness.Protocols}) *)
  seconds : int;  (** client horizon, simulated seconds *)
  clients : int;
  phantom : bool;  (** [Cluster.reintroduce_phantom_secondary] *)
  overload : bool;  (** overload-control knobs on (minus the deadline) *)
  skew_pct : int;  (** YCSB skew × 100 *)
  cross_pct : int;  (** cross-partition fraction × 100 *)
  ops : op list;
}

type verdict =
  | Clean
  | Safety  (** checker anomaly or replica divergence *)
  | Liveness  (** safety passed but the liveness audit found wedges *)

val verdict_name : verdict -> string

type result = {
  case : case;
  verdict : verdict;
  signature : string list;
      (** sorted, deduplicated coverage signal: the ["m:"] and ["b:"]
          {!Lion_sim.Metrics.signal}s of counters that fired, ["a:"]
          anomaly classes, ["d:"] divergence classes, ["l:"] liveness
          classes *)
  outcome : Drive.outcome;
}

val cfg_of_case : case -> Lion_store.Config.t
(** Elastic defaults (standbys, rebalancing) plus the case's
    [overload] flag. No transaction deadline: wedges must wedge, not
    time out. The [phantom] flag is not configuration: [run_case]
    sets the cluster's test-only hook. *)

val run_case : ?max_events:int -> case -> result
(** Run one schedule to quiescence and audit it, on YCSB
    ({!Lion_harness.Workloads.ycsb}). [max_events] (default 2M) bounds
    the drain; exhaustion is a liveness finding, not an error. Raises
    [Invalid_argument] on an unknown protocol id. *)

val generate :
  ?proto:string ->
  Lion_kernel.Rng.t ->
  protos:string list ->
  phantom:bool ->
  name:string ->
  case
(** Draw a fresh random schedule (1–6 ops). [proto] pins the protocol
    ({!campaign} cycles it across fresh generates so no engine is
    crowded out); by default it is drawn from [protos] (registry ids). *)

val mutate : Lion_kernel.Rng.t -> protos:string list -> name:string -> case -> case
(** Derive a neighbour of [case]: add, drop, re-draw or time-shift ops,
    re-seed the run, or switch to another of [protos]. *)

val shrink : ?budget:int -> case -> verdict -> case * int
(** Delta-debugging (ddmin) minimization: the smallest op subset that
    still reproduces the same verdict category, re-running the case at
    each probe (at most [budget] runs, default 150). Returns the
    minimized case and the number of runs spent. *)

val to_json : expect:verdict -> case -> string
(** Serialize for the corpus; [expect] records the verdict a replay
    must reproduce. Byte-stable: [of_json] then [to_json] is the
    identity on files this function wrote. *)

val of_json : string -> (case * verdict, string) Stdlib.result
(** [Error] for text that is not JSON (a misspelt literal included), a
    missing or mistyped field, a non-integer number in an integer field,
    an unknown op or verdict, or a corpus version other than 1. *)

val save : dir:string -> expect:verdict -> case -> string
(** Write [to_json] under [dir] as ["<name>.json"], creating [dir] if
    missing; returns the path. *)

val load_file : string -> (case * verdict, string) Stdlib.result

type campaign_result = {
  rounds_run : int;
  pool_size : int;  (** distinct coverage signatures seen *)
  failures : (result * case option) list;
      (** failing results in discovery order, each with its shrunk
          schedule when shrinking was on *)
}

val campaign :
  ?rounds:int ->
  ?shrink_failures:bool ->
  ?max_events:int ->
  ?log:(string -> unit) ->
  seed:int ->
  phantom:bool ->
  protos:string list ->
  unit ->
  campaign_result
(** Run a fuzzing campaign: [rounds] (default 40) schedules, each
    either freshly generated or mutated from a coverage-pool entry.
    [log] receives one progress line per round. Deterministic in
    ([seed], [phantom], [protos], [rounds]). *)
