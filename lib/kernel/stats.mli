(** Online statistics: running moments, percentile reservoirs, counters.

    The simulator records one latency sample per committed transaction
    and per-second throughput buckets; this module provides the
    accumulators the metrics layer is built on. *)

(** Running mean/variance accumulator (Welford). *)
module Running : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val reset : t -> unit
end

(** Bounded reservoir for percentile estimation (uniform reservoir
    sampling, Vitter's Algorithm R). Deterministic given its [Rng.t]. *)
module Reservoir : sig
  type t

  val create : ?capacity:int -> Rng.t -> t
  val add : t -> float -> unit
  val count : t -> int
  (** Total number of samples offered, not just those retained. *)

  val percentiles : t -> float array -> float array
  (** [percentiles t [| 50.0; 99.0 |]] — each rank by linear
      interpolation between order statistics, from one sort of the
      retained samples; 0 for every rank if empty. *)

  val percentile : t -> float -> float
  (** One rank of [percentiles]. *)

  val mean : t -> float
  val reset : t -> unit
end

val sort_floats : float array -> unit
(** Sorts in place into exactly the order [Array.sort compare] gives,
    the placement of equal elements (0.0 and -0.0, NaNs) included. *)

val percentile_of_sorted : float array -> float -> float
(** [percentile_of_sorted sorted p] with [p] in [0,100]. *)

val mean_of : float list -> float
val mean_range : float array -> from_:int -> until:int -> float
(** Mean of [series.(from_) .. series.(until - 1)], clamped to the
    array; 0 when the range is empty. *)

val cosine_similarity : float array -> float array -> float
(** Cosine of the angle between two equal-length vectors; 0 when either
    vector is all-zero. *)
