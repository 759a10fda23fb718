(** Point-to-point network model.

    One-way message delay = [latency] + [bytes] × [per_byte]. Defaults
    are calibrated to the paper's testbed: a LAN with iperf-measured
    ~937 Mbit/s (≈ 0.0085 µs/byte) and a one-way latency of 60 µs.
    Messages between a node and itself are free. All transferred bytes
    are accounted, globally and per time bucket, which reproduces the
    bytes-per-transaction series of Fig. 12b. *)

type t

type topology = {
  regions : int;  (** number of regions, ≥ 2 to be meaningful *)
  region_of : int array;  (** node id → region id, one entry per node *)
  wan_latency : float;  (** cross-region one-way µs *)
  wan_per_byte : float;  (** cross-region µs/byte *)
}
(** Region topology (docs/GEO.md): a static node → region map plus the
    WAN link class. Links between nodes of the same region keep the
    LAN [latency]/[per_byte]; links crossing regions pay [wan_latency]
    / [wan_per_byte] instead, and are counted separately in
    [Metrics.Wan_messages] / [Metrics.Wan_bytes]. *)

val create :
  ?latency:float -> ?per_byte:float -> ?topology:topology -> ?fault:Fault.t ->
  ?metrics:Metrics.t -> Engine.t -> t
(** [latency] one-way µs (default 60.), [per_byte] µs/byte
    (default 0.0085). When [fault] is given, every non-local send
    consults it for partitions, probabilistic drop, latency jitter and
    dead-endpoint loss; when [metrics] is given, fault-layer drops are
    counted there ([Metrics.Drops]). When [topology] is given, links crossing
    regions pay the WAN latency class and are accounted per link class
    in [metrics]; omitting it (the default) keeps the historical
    single-latency-class network bit-for-bit. *)

val engine : t -> Engine.t

val fault : t -> Fault.t option

val send :
  t -> src:int -> dst:int -> bytes:int -> ?on_drop:(unit -> unit) ->
  ?ctx:Lion_trace.Trace.ctx ->
  (unit -> unit) -> unit
(** Deliver a message of [bytes] from [src] to [dst]; the callback runs
    at arrival time. Local sends ([src = dst]) deliver immediately
    (next event) and count no bytes. If the fault layer kills the
    message (active partition, drop spec, or a dead endpoint — at send
    time or while in flight), the delivery callback never runs and
    [on_drop] (default: ignore) fires instead, at the moment of loss;
    senders modelling a timeout delay it themselves. Bytes are charged
    even for dropped messages — they left the NIC.

    [ctx] (a trace context of the transaction this message serves, see
    {!Lion_trace.Trace}) opens a child span covering the wire time, in
    the parent's phase and named [msg s->d] ([wan s->d] across
    regions), and annotates it on loss; [None] — the default and the
    tracing-disabled path — costs nothing and never perturbs the
    simulation. *)

val charge : t -> bytes:int -> unit
(** Account bytes (and one message) without scheduling a delivery event
    — used by the analytic batch-epoch model where thousands of
    replication messages per epoch would otherwise flood the event
    queue. *)

val oneway_delay : t -> bytes:int -> float
(** The modelled one-way LAN delay for a remote message of [bytes]. *)

val link_delay : t -> src:int -> dst:int -> bytes:int -> float
(** The delay a [send] between these endpoints would experience:
    the WAN latency and per-byte cost when they are in different regions,
    [oneway_delay] otherwise (and always, region-free). *)

val roundtrip : t -> bytes:int -> float
(** Two one-way delays (request and reply of equal size). *)

val topology : t -> topology option

val regions : t -> int
(** Number of regions; 1 when no topology is installed. *)

val region_of : t -> int -> int
(** Region of a node; 0 for every node when no topology is
    installed. *)

val cross_region : t -> src:int -> dst:int -> bool
(** Whether a [send] between these endpoints crosses a region
    boundary; always false region-free. *)

val total_bytes : t -> int
(** All bytes ever sent on non-local links. *)

val bytes_series : t -> Lion_kernel.Timeseries.t
(** Bytes bucketed per simulated second. *)

val message_count : t -> int
