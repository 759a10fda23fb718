(** The workload prediction pipeline (§IV-C), end to end:

    observe transactions → identify templates → classify into workloads
    (cosine distance β) → forecast each workload's arrival rate with the
    LSTM → compute the workload-variation metric wv(t, h) (Eq. 6) →
    when wv exceeds γ, emit the co-accessed partition sets expected to
    become hot, each with graph weight w_p, for the planner to merge
    into its heat graph ("pre-replication"). *)

type prediction = {
  parts : int list;  (** co-accessed partitions anticipated *)
  weight : float;  (** edge weight to add to the heat graph *)
}

type t

val create : ?seed:int -> ?gamma:float -> ?w_p:float -> ?use_lstm:bool -> unit -> t
(** Defaults: [gamma] 0.30 (normalised wv threshold) and [w_p] 1.0
    (the paper's default; 0 disables prediction). Fixed: 1 s sampling
    interval, a 10-period forecast window, [beta] 0.15, a 3-period
    horizon and 8 sampled templates per rising workload. *)

val observe : t -> time:float -> Lion_workload.Txn.t -> unit
(** Feed one executed transaction's partition set into the registry. *)

val analyze : t -> time:float -> prediction list
(** Run classification + forecasting. Returns the pre-replication hints
    (empty when [w_p = 0], when wv ≤ γ, or when nothing is predicted to
    rise). Also refreshes [last_wv]. *)

val last_wv : t -> float
(** The most recent workload-variation value (Eq. 6, normalised by the
    mean current rate so γ is scale-free). *)

val template_count : t -> int
val class_count : t -> int
(** Number of workload classes found by the last [analyze]. *)

val w_p : t -> float
