(** The elastic-scale experiment (docs/MEMBERSHIP.md): a diurnal
    open-loop workload drives the forecast-based autoscaler
    ({!Lion_predict.Autoscale}), which admits standby nodes on the ramp
    up and decommissions them on the ramp down, all under traffic.

    What it measures:

    - {b time-to-rebalance}: each membership change kicks the
      rate-limited rebalancer; the span from the change to the
      rebalancer running out of work is the window during which the
      cluster is shuffling replicas;
    - {b goodput dip}: per-second commits divided by per-second
      arrivals — under open-loop load the offered rate is unaffected
      by the cluster's troubles, so any completion shortfall around a
      join or decommission shows directly. The report gives the dip's
      depth (worst shortfall) and duration (seconds below 98 %
      completion) in the seconds following each scale event;
    - {b stale-ack rejections}: replication streams outliving a
      membership change are rejected, not applied. *)

type event = { at : float;  (** seconds *) kind : string; node : int }

type report = {
  seconds : int;  (** measured duration *)
  offered_series : float array;  (** arrivals per second *)
  members_series : int array;  (** member count sampled each second *)
  events : event list;  (** joins / decommissions, in time order *)
  joins : int;
  decommissions : int;  (** completed (fully drained) removals *)
  rebalance_migrations : int;
  time_to_rebalance : float list;
      (** seconds from each membership change to rebalancer quiescence,
          one entry per completed rebalance round *)
  dips : (string * float * float) list;
      (** per scale event: (kind, depth in [0,1], duration in s) of the
          completion-ratio dip in the following window *)
  result : Runner.result;
      (** the cell's run: its [goodput_series] (commits per second),
          commits, aborts and stale-ack rejections are the report's *)
}

val run : ?seed:int -> ?smoke:bool -> ?trace:Runner.trace_sink -> unit -> report
(** One {!Runner} cell in its quiesce shape, traced through [trace]
    without changing the report. [smoke] (default false) shrinks the run
    (one diurnal cycle in 10 simulated seconds, trend forecaster instead
    of the LSTM) so CI can afford it; the full run is a 30 s cycle with
    the LSTM on. Deterministic in [seed] — two runs print
    byte-identical reports. *)

val print_report : report -> unit
