(** Deterministic fault injection.

    A {e fault plan} is a list of declarative specs — node crashes,
    link partitions, probabilistic message drop, latency jitter and
    slow-node (straggler) multipliers — evaluated against the simulated
    clock. All randomness (drop draws, jitter) flows from a dedicated
    seeded PRNG, so a given (seed, plan) pair replays the exact same
    fault sequence; with an empty plan the PRNG is never consulted and
    the event schedule is bit-for-bit identical to a fault-free run.

    The network consults [link] per message; the cluster mirrors node
    liveness into [mark_down]/[mark_up] and schedules the [crash_events]
    of the plan at startup. See docs/FAULTS.md for the model. *)

type spec =
  | Crash of { node : int; at : float; recover_at : float option }
      (** node fails at [at] (µs) and optionally rejoins at [recover_at] *)
  | Partition of { groups : int list list; from_ : float; until : float }
      (** nodes in different groups cannot exchange messages while
          active; nodes absent from every group reach everyone *)
  | Drop of {
      src : int option;  (** restrict to one sender ([None] = any) *)
      dst : int option;  (** restrict to one receiver *)
      prob : float;  (** per-message drop probability *)
      from_ : float;
      until : float;
    }
  | Jitter of { extra : float; from_ : float; until : float }
      (** add uniform [0, extra) µs to every one-way delivery *)
  | Straggler of { node : int; factor : float; from_ : float; until : float }
      (** multiply all CPU work on [node] by [factor] while active *)
  | Delay of {
      src : int option;  (** restrict to one sender ([None] = any) *)
      dst : int option;  (** restrict to one receiver *)
      extra : float;  (** deterministic extra one-way latency, µs *)
      from_ : float;
      until : float;
    }
      (** add exactly [extra] µs to matching deliveries — the
          deterministic cousin of [Jitter], used to keep messages in
          flight across a crash/rejoin window (docs/MEMBERSHIP.md) *)

type plan = spec list

val none : plan

(** {2 Spec constructors} *)

val crash : node:int -> at:float -> ?recover_at:float -> unit -> spec
val partition : groups:int list list -> from_:float -> until:float -> spec

val drop :
  ?src:int -> ?dst:int -> prob:float -> from_:float -> until:float -> unit -> spec

val jitter : extra:float -> from_:float -> until:float -> spec
val straggler : node:int -> factor:float -> from_:float -> until:float -> spec

val delay :
  ?src:int -> ?dst:int -> extra:float -> from_:float -> until:float -> unit -> spec

(** {2 Named scenarios} — small plans that compose with [@]. *)

val crash_recover : node:int -> at:float -> downtime:float -> plan
val split_brain : groups:int list list -> at:float -> duration:float -> plan

val lossy :
  ?src:int -> ?dst:int -> prob:float -> from_:float -> until:float -> unit -> plan

val slow_node : node:int -> factor:float -> from_:float -> until:float -> plan

(** {2 Runtime state} *)

type t

val create : ?seed:int -> nodes:int -> plan -> t
val plan : t -> plan

val up : t -> int -> bool
(** Liveness as seen by the network ([mark_down] flips it). *)

val mark_down : t -> int -> unit
val mark_up : t -> int -> unit

type verdict =
  | Deliver of float  (** deliver with this much extra one-way delay *)
  | Blocked  (** an active partition separates the endpoints *)
  | Dropped  (** killed by a drop spec or a dead endpoint *)

val link : t -> now:float -> src:int -> dst:int -> verdict
(** Fate of one message sent now. Draws the PRNG only when an active
    probabilistic spec matches, preserving determinism otherwise. A
    delivery with no added delay returns one shared [Deliver 0.0]. *)

val link_inert : t -> bool
(** The plan has no partition, drop, jitter or delay spec: [link] then
    equals [endpoints] at any time. *)

val endpoints : t -> src:int -> dst:int -> verdict
(** [link] under a plan with no link spec: [Dropped] if either endpoint
    is down, else the shared [Deliver 0.0]. Takes no clock, so it boxes
    nothing. *)

val slow_factor : t -> now:float -> int -> float
(** Product of the factors of all stragglers active on [node] (1.0 when
    none). *)

val slow_inert : t -> bool
(** The plan has no straggler spec: [slow_factor] is 1.0 at any time,
    so a caller need not read its clock. *)

val crash_events : plan -> (float * [ `Crash of int | `Recover of int ]) list
(** The plan's node-lifecycle events, sorted by time — the cluster
    schedules these against its engine at startup. *)
