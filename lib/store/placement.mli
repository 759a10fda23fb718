(** Replica placement: which node hosts the primary and which hold
    secondaries, per partition — the paper's "global router table".

    Invariants maintained:
    - every partition has exactly one primary;
    - the primary's node never also appears in the secondary set;
    - the replica count never exceeds [max_replicas] via [add_secondary]
      (callers evict explicitly, mirroring the delete_flag mechanism). *)

type t

val create :
  ?standby:int ->
  nodes:int ->
  partitions:int ->
  replicas:int ->
  max_replicas:int ->
  unit ->
  t
(** Round-robin initial placement (§II-C): partition [p]'s primary is
    node [p mod nodes]; its [replicas - 1] secondaries follow on
    successive nodes. [standby] (default 0) widens the node-id space by
    that many empty slots for elastic membership — [nodes t] then
    reports the total capacity, but nothing is initially placed on the
    standby ids (docs/MEMBERSHIP.md). *)

val nodes : t -> int
val partitions : t -> int
val max_replicas : t -> int

val primary : t -> int -> int
(** [primary t p] is the node hosting partition [p]'s primary. *)

val secondaries : t -> int -> int list
(** Sorted list of nodes holding a secondary of [p]. *)

val replica_count : t -> int -> int
val has_primary : t -> part:int -> node:int -> bool
val has_secondary : t -> part:int -> node:int -> bool
val has_replica : t -> part:int -> node:int -> bool

val remaster : t -> part:int -> node:int -> unit
(** Promote [node]'s secondary of [part] to primary; the old primary
    becomes a secondary. Raises [Invalid_argument] if [node] holds no
    replica of [part] (callers must add one first). No-op if [node] is
    already the primary. *)

val add_secondary : t -> part:int -> node:int -> unit
(** Add a secondary replica on [node]. No-op if a replica already
    exists there. Raises [Invalid_argument] when at [max_replicas]. *)

val remove_secondary : t -> part:int -> node:int -> unit
(** Drop [node]'s secondary. Raises [Invalid_argument] when asked to
    remove the primary or a non-existent replica. *)

val parts_primary_on : t -> int -> int list
(** All partitions whose primary lives on a node. *)

val replicas_on : t -> int -> int
(** Total replica count (primary + secondary) hosted by a node. *)

val count_primaries_at : t -> int list -> node:int -> int
(** How many of the given partitions have their primary at [node]. *)

val count_replicas_at : t -> int list -> node:int -> int
(** How many of the given partitions have any replica at [node]. *)

val best_local_node : t -> int list -> int option
(** A node holding a replica of {e every} given partition, preferring
    the one with the most primaries among them; [None] if no node covers
    all of them. Deterministic tie-break on the lower node id. *)

val regions_spanned : t -> region_of:(int -> int) -> part:int -> int
(** Distinct regions covered by [part]'s replica set (primary +
    secondaries) under the caller's node → region map — the
    [min_regions] invariant the geo tests assert (docs/GEO.md). *)

val spread_regions :
  t ->
  region_of:(int -> int) ->
  eligible:(int -> bool) ->
  min_regions:int ->
  unit
(** Deterministically relocate secondaries so every partition spans at
    least [min_regions] distinct regions (capped at the number of
    regions that exist): for each under-spread partition, the
    highest-id secondary in an over-represented region moves to the
    least-loaded [eligible] node of an uncovered region. Run once at
    cluster creation when the geo [min_regions] ≥ 2; the rebalancer
    maintains the invariant afterwards. *)

val copy : t -> t
(** Deep copy, used by planners to evaluate candidate plans. *)
