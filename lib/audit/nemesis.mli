(** Composable nemeses: named, schedulable fault scenarios.

    A nemesis is a duration plus a function from a start time to a
    {!Lion_sim.Fault.plan} — a declarative spec list the cluster
    evaluates deterministically (see docs/FAULTS.md). Building a plan
    draws nothing from the simulation: the same nemesis at the same
    start time always yields the identical plan, and the
    [adversarial] generator derives all its randomness from its own
    seed, so a (seed, nemesis) pair replays bit-for-bit.

    Primitives ([crash], [partition], [isolate], [straggler],
    [lossy]) compose with [seq] (one after another), [overlay] (all
    at once), [stagger] (starts spaced by a gap) and [repeat].
    Durations are in simulated µs. *)

type t

val name : t -> string

val duration : t -> float
(** Span from the nemesis' start to the end of its last window (the
    schedule horizon; a [seq]'s parts are summed, an [overlay]'s
    maxed). *)

val plan : t -> at:float -> Lion_sim.Fault.plan
(** Materialise the fault plan with the first fault window anchored at
    [at]. *)

val v : name:string -> dur:float -> (float -> Lion_sim.Fault.plan) -> t
(** Build a custom nemesis from scratch. *)

(** {2 Primitives} *)

val calm : t
(** No faults — the control nemesis. *)

val crash : ?downtime:float -> node:int -> unit -> t
(** Crash [node] at the start time; recover after [downtime]
    (default 2 s). *)

val partition : ?duration:float -> groups:int list list -> unit -> t
(** Split the cluster into isolated groups for [duration]
    (default 1 s). *)

val isolate : ?duration:float -> node:int -> nodes:int -> unit -> t
(** Partition one node away from the other [nodes - 1]. *)

val straggler : ?duration:float -> ?factor:float -> node:int -> unit -> t
(** Multiply [node]'s CPU work by [factor] (default 8×) for
    [duration] (default 2 s). *)

val lossy : ?duration:float -> ?prob:float -> unit -> t
(** Drop every message with probability [prob] (default 0.3) for
    [duration] (default 1 s). *)

(** {2 Combinators} *)

val rename : string -> t -> t
val seq : ?gap:float -> t list -> t
val overlay : t list -> t
val stagger : gap:float -> t list -> t
val repeat : ?gap:float -> times:int -> t -> t

(** {2 Adversarial scenarios} *)

val crash_during_remaster : ?node:int -> ?downtime:float -> unit -> t
(** Crash the remaster-heavy node (default 1, Lion's usual promotion
    target) with a short downtime (default 0.5 s) so the crash lands
    inside transfer windows and the recovery inside the run. *)

val partition_primary_from_majority :
  ?node:int -> ?duration:float -> nodes:int -> unit -> t
(** Cut a primary-heavy node (default 0) away from the majority:
    its partitions must elect new primaries while every log ship
    crossing the cut dies. *)

val straggler_on_coordinator :
  ?node:int -> ?duration:float -> ?factor:float -> unit -> t
(** Slow the default coordinator (node 0) by [factor] (default 16×)
    without killing it: transactions keep routing there and pile up
    timeouts. *)

val overload_burst :
  ?node:int -> ?duration:float -> ?factor:float -> ?prob:float -> unit -> t
(** Overload trigger (docs/OVERLOAD.md): a straggler (default node 0,
    6x for 2 s) overlaid with a lossy network ([prob] drop chance,
    default 0.15) in the same window — the retry-storm recipe. The
    audit asserts that load shedding, breakers and deadline give-ups
    cost availability only, never consistency. *)

val crash_rejoin :
  ?node:int -> ?cycles:int -> ?period:float -> ?downtime:float -> unit -> t
(** Crash/rejoin cycles engineered to catch replication streams mid
    flight (docs/MEMBERSHIP.md): each cycle deterministically delays
    messages to [node] (default 1) just before a crash whose [downtime]
    (default 120 ms) is shorter than a replica install, so both delayed
    log-ship acks and in-flight snapshot installs land {e after} the
    node has rejoined. Without [Config.session_tagging] the stale
    streams are accepted and the divergence audit reports
    [Stale_replica]; with it they are rejected (counted as
    [Metrics.Stale_acks]) and the audit stays clean. Cycles
    (default 2) repeat every [period] (default 1 s — the audit driver's
    planner-tick period, so installs are in flight when the crash
    lands; a further cycle would crash the node again {e after} the
    stale installs landed, wiping the evidence before the audit
    runs). *)

val adversarial : ?events:int -> ?window:float -> seed:int -> nodes:int -> unit -> t
(** Seeded schedule generator: [events] (default 6) random fault
    windows — crashes, single-node partitions, stragglers, message
    drops — placed over [window] µs (default 6 s). All randomness
    comes from [seed] alone. *)
