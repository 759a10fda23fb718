(** Lion's planner node (§III): workload analyzer + plan generator.

    Each analysis round (driven by the harness tick):
    + the heat graph accumulated since the last round — plus, when
      prediction is enabled and the workload-variation trigger fires,
      the predicted co-access templates weighted by w_p — is clustered
      into clumps;
    + the rearrangement algorithm (or the Schism baseline strategy, for
      the Table II ablations) assigns clumps to nodes;
    + the resulting reconfiguration plan is applied asynchronously by
      the adaptor (replica additions in the background, remastering
      lazily at execution time unless the strategy is eager). *)

type strategy = Rearrange | Schism_strategy

type config = {
  strategy : strategy;
  use_lstm : bool;  (** false = trend-only forecaster (fast benches) *)
  w_p : float;
      (** weight of predicted co-access in the heat graph (§IV-C);
          0 disables the prediction algorithm, the paper's default is 1 *)
}
(** Algorithm 1's ε (0.25) is [Rearrange.rearrange]'s default; the
    clump threshold factor (2), cross-node boost (4) and counter decay
    (0.5) are constants of this module; [Costmodel.w_r]/[w_m] are
    Eq. 3's unit costs. *)

val default_config : config
(** Rearrange + prediction with the LSTM forecaster, w_p = 1. *)

type clumping = {
  alpha : float;  (** clump threshold: 2 × the mean edge weight *)
  max_weight : float;
      (** clump weight cap: the larger of 0.35 × the per-node share of
          the total vertex weight and 2.2 × the hottest vertex *)
  clumps : Lion_analysis.Clump.t list;
}

val clump : Lion_store.Cluster.t -> Lion_analysis.Heatgraph.t -> clumping
(** The clump step of an analysis round on [graph], against the
    cluster's current placement. [tick] runs it on the accumulated heat
    graph; [lion debug planner] on a synthetic one. *)

type t

val create : ?seed:int -> config -> Lion_store.Cluster.t -> t

val cost_model : t -> Lion_analysis.Costmodel.t
(** Shared with the routers. *)

val observe : t -> Lion_workload.Txn.t -> unit
(** Feed one routed transaction (graph + predictor). *)

val tick : t -> unit
(** One analysis round: analyse, plan, apply asynchronously. *)

val rounds : t -> int
val last_plan_adds : t -> int
val last_wv : t -> float
(** Workload-variation metric after the latest round (0 when prediction
    is off). *)
