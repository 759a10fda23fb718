(** Geo-replication experiments (docs/GEO.md).

    Everything here runs on the GEO preset ({!Config.default_geo}:
    2 regions, [min_regions] 2) with the region-aware two-partition
    workload of {!gen}. The headline sweep varies the fraction of
    transactions whose second partition is homed in another region and
    compares Lion, Star, 2PC and the epoch-based OCC protocol —
    reproducing the crossover where Lion's adaptive replication wins at
    0 % cross-region and epoch-based OCC wins at the high end. *)

val geo_config : ?regions:int -> unit -> Lion_store.Config.t
(** [Config.default] with the geo preset applied and [regions] regions
    (default 2). *)

val gen :
  ?seed:int ->
  ?cross:float ->
  Lion_store.Config.t ->
  time:float ->
  Lion_workload.Txn.t
(** Two-partition read-write transactions with a region-local home
    partition; [cross] (default 0) is the probability that the second
    partition is homed in a different region. Partition → region uses
    the seed placement (primary of [p] is node [p mod nodes]), so the
    mix is stable under remastering. *)

val ratios : float list
(** The sweep's cross-region ratios: 0, 0.25, 0.5, 0.75, 1. *)

val sweep :
  ?seed:int ->
  ?scale:float ->
  ?regions:int ->
  ?trace:Runner.trace_sink ->
  unit ->
  (string * Runner.result list) list
(** One row per protocol (Lion, Star, 2PC, EpochOCC), one result per
    ratio, all cells on the pool. [scale] multiplies simulated
    durations (default 1.0). *)

val print_sweep : regions:int -> (string * Runner.result list) list -> unit
(** Throughput and WAN traffic (MB over the whole run) per ratio. *)

val crossover_ok : (string * Runner.result list) list -> bool
(** [Lion >= EpochOCC] at ratio 0 and [EpochOCC >= Lion] at ratio 1. *)

val wan_partition :
  ?seed:int ->
  ?scale:float ->
  ?trace:Runner.trace_sink ->
  unit ->
  (float * float) * (string * Runner.result) list
(** Goodput under a WAN partition: regions 0 and 1 are split for a
    window mid-run on a 10 % cross-region workload. [min_regions] = 2
    keeps both sides holding a replica of every partition. Returns the
    window (start, end in seconds) with one result per protocol. *)

val print_partition : (float * float) * (string * Runner.result) list -> unit
