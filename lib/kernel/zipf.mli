(** Zipfian integer distribution over [0, n), as used by YCSB.

    The [theta] parameter matches the YCSB/Gray self-similar convention:
    [theta = 0] is uniform and larger values are more skewed (YCSB's
    default "zipfian constant" is 0.99; the paper's skew_factor 0.8 maps
    to theta = 0.8). Sampling uses the rejection-inversion-free method of
    Gray et al. ("Quickly generating billion-record synthetic databases"),
    which is exact and O(1) per draw after O(n)… — to stay O(1) in both
    time and space for very large [n], we use the analytic approximation
    with precomputed zeta constants, the same scheme YCSB itself uses. *)

type t

val create : n:int -> theta:float -> t
(** [create ~n ~theta] prepares a generator over [0, n). [theta >= 0.];
    [theta = 0.] degrades to uniform. *)

val sample : t -> Rng.t -> int
(** Draw one value in [0, n). Rank 0 is the most popular item. *)

val scaled_pow25 : ?margin:float -> float -> float -> float
(** [scaled_pow25 scale b] truncates ([int_of_float]) to the same
    integer as [scale *. Float.pow b 2.5], for [b] in [0, 1] and
    [scale] a positive integer, without calling [Float.pow] on almost
    every input: it is [v = scale *. (b *. b *. sqrt b)] unless [v]
    lies within [margin *. v] (default 1e-13) of an integer, and
    [Float.pow]'s value otherwise. [sample] uses it when the exponent
    is 2.5 (theta = 0.6). *)

val n : t -> int
val theta : t -> float
