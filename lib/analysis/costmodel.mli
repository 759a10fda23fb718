(** The clump-placement cost model (Eqs. 3–4).

    Placing clump c on node n costs
      f_o(n, c) = w_r · Σ cnt_r(v, n)  +  w_m · Σ cnt_m(v, n)
    where cnt_r counts partitions that would need remastering —
    weighted 1 + log₂(f(v, primary) + 1), since remastering a hot
    primary is more disruptive — and cnt_m counts partitions with no
    replica on n at all (migration needed). A node already holding all
    primaries costs 0. *)

type wan = {
  region_of : int -> int;  (** node → region map ([Cluster.region_of]) *)
  factor : float;
      (** cross-region cost multiplier, typically the WAN/LAN latency
          ratio clamped to a sane range *)
}
(** WAN awareness (docs/GEO.md): when present, moving a partition's
    mastership or a copy to a node in a {e different} region than its
    current primary scales both the remaster and the migration term by
    [factor] — leader transfers over the WAN are a latency cliff, so
    the planner keeps clumps region-local unless the co-access evidence
    overwhelms the multiplier. *)

val w_r : float
(** Remastering unit cost: 1.0. *)

val w_m : float
(** Migration unit cost: 10.0, the remaster-vs-migration cost ratio of
    the simulated substrate. *)

type t = {
  freq : int -> float;  (** normalised access frequency f(v, ·) *)
  wan : wan option;  (** cross-region multiplier; [None] = region-free *)
}

val make : ?wan:wan -> freq:(int -> float) -> unit -> t
(** [wan] defaults to no WAN term. *)

val cnt_r : t -> Lion_store.Placement.t -> part:int -> node:int -> float
val cnt_m : t -> Lion_store.Placement.t -> part:int -> node:int -> float

val clump_cost : t -> Lion_store.Placement.t -> parts:int list -> node:int -> float
(** f_o(n, c). *)

val find_dst_node :
  ?eligible:(int -> bool) -> t -> Lion_store.Placement.t -> parts:int list -> int * float
(** The node with the lowest placement cost (lowest id on ties) and
    that cost. [eligible] (default: everyone) restricts the candidate
    set — elastic clusters pass [Cluster.plan_target_ok] so plans never
    target standby, draining or dead slots (docs/MEMBERSHIP.md). *)

val txn_route_cost :
  t -> Lion_store.Placement.t -> parts:int list -> node:int -> float
(** Router-side execution-cost estimate for running a transaction on a
    node: primaries are free, local secondaries cost a remaster, absent
    partitions cost remote 2PC access (weighted [w_m], the dominant
    cost). Used by the transaction router (§III), which shares the
    planner's model.

    Unlike {!clump_cost} (a deliberate planner move backed by co-access
    evidence), the remaster term here scales the partition frequency
    steeply ([route_freq_scale]), so that opportunistically stealing a
    hot primary — which would break the clump it serves until it flips
    back — prices out near [w_m] and the transaction runs 2PC instead.
    This is what keeps overlapping cold templates from ping-ponging hot
    partitions. *)

val route_freq_scale : float
