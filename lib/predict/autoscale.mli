(** Forecast-driven elastic autoscaling (docs/MEMBERSHIP.md).

    Couples the workload forecaster (§IV-C1's LSTM, with its
    trend-extrapolation fallback) to the cluster-size decision: observe
    the arrival rate each control tick, forecast it 3 ticks ahead,
    convert to a desired member count via a per-node capacity, and emit
    a scale decision once the desire has persisted for 3 consecutive
    ticks in the same direction (the hysteresis).

    The hysteresis matters because membership changes are expensive —
    a join or decommission triggers a rate-limited rebalance
    ({!Lion_store.Cluster.join_node}) — so a scaler that chases every
    rate wobble would thrash replicas back and forth. Deciding on the
    {e forecast} rather than the current rate is what lets provisioning
    start before a diurnal ramp arrives, hiding the rebalance latency
    inside the ramp (the Lion adaptor's bet, applied to nodes instead
    of replicas). *)

type t

type decision =
  | Hold
  | Scale_up  (** admit one standby node *)
  | Scale_down  (** decommission one member *)

val create :
  forecaster:Forecaster.t -> per_node_rate:float -> min_members:int -> max_members:int -> t
(** [per_node_rate] is the arrival rate (txns per simulated second) one
    member sustains comfortably; desired size is
    [ceil (forecast * 1.2 / per_node_rate)] (1.2 is the over-provision
    headroom) clamped to [[min_members, max_members]]. The forecaster
    sees the latest 64 observations. *)

val observe : t -> rate:float -> unit
(** Record one control tick's observed arrival rate (txns/s). *)

val decide : t -> members:int -> decision
(** Decision for the current tick given the live member count. Returns
    [Hold] until enough history exists (3 observations) or while the
    hysteresis streak is still building; emitting a decision resets the
    streak, so scale steps are at least 3 ticks apart. *)

val desired : t -> members:int -> int
(** The clamped member count the latest forecast asks for (= [members]
    before any history exists). Exposed for reporting. *)

val forecast_rate : t -> float
(** Latest forecast arrival rate (txns/s), 0 before any history. *)

val scale_ups : t -> int

val scale_downs : t -> int
