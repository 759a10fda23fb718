(** Zipfian integer distribution over [0, n), as used by YCSB.

    The [theta] parameter matches the YCSB/Gray self-similar convention:
    [theta = 0] is uniform and larger values are more skewed (YCSB's
    default "zipfian constant" is 0.99; the paper's skew_factor 0.8 maps
    to theta = 0.8). Sampling uses the method of Gray et al. ("Quickly
    generating billion-record synthetic databases"), the scheme YCSB
    itself uses: one uniform draw and at most one power per sample,
    from constants computed at construction.

    Costs. Construction needs the normalising constant zeta(n, theta),
    summed over the first [min n 10_000] terms ([Float.pow] calls each)
    with an analytic tail for larger [n]. The process keeps the eight
    most recently computed (n, theta) pairs, so only the first [create]
    for a pair pays the sum (about 0.4 ms at n > 10^4); later ones, on
    any domain, pay a list lookup. A draw is O(1). *)

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

val zeta : int -> float -> float
(** [zeta n theta] computes the normalising constant directly, without
    the process-wide memo: [create] stores exactly this value. *)

val zetan : t -> float
(** The normalising constant the generator draws with ([0.] when
    [theta = 0.]). *)
