(** How a message survives loss: remote calls with timeouts, retries,
    the retry budget and per-destination circuit breakers; asynchronous
    log shipping; and the anti-entropy loop that repairs a replica a
    log ship gave up on. Every function runs against a {!Cluster.t},
    whose fields hold the state ([retry_budget], [breakers],
    [resync_inflight], [resync_count]); this module is the only reader
    of those fields and of [Config.rpc_retries] / [Config.rpc_backoff]. *)

val call :
  Cluster.t ->
  ?on_fail:('a -> unit) ->
  ?ctx:Lion_trace.Trace.ctx ->
  ?deadline:float ->
  ?prio:Lion_sim.Server.prio ->
  src:int -> dst:int -> bytes:int -> work:float -> ('a -> unit) -> 'a -> unit
(** [call t ~src ~dst ~bytes ~work k x] is a round trip: request
    message, [work] µs of service on [dst]'s messenger pool (stretched
    by [dst]'s [Cluster.work_scale]), reply message; [k x] fires at
    reply arrival. Passing the caller's state as [x] lets a hot path
    preallocate [k] and [on_fail], so issuing a call builds no closure
    for them; callers with no state pass [()]. Local calls skip the
    wire but still consume [work]. If the request or reply is lost
    (fault layer: drop, partition, dead endpoint) or shed by [dst]'s
    admission queue, the sender times out [Config.rpc_timeout] µs after
    the attempt began and retransmits with exponential backoff
    ([Config.rpc_backoff] doubling per attempt), up to [Config.rpc_retries]
    retries; exhausting them records a timeout and fires [on_fail x]
    (default: ignore). A retransmission may re-execute [work] on [dst] —
    modelled services are idempotent. Timers are created lazily at the
    moment of loss, so healthy runs schedule no extra events and stay
    bit-for-bit deterministic. A remote call is one record, built once:
    its retransmissions reuse it and its continuations.

    Overload controls (each off by default — docs/OVERLOAD.md):
    a retransmission is abandoned (and [on_fail] fires) once [deadline]
    — an absolute simulated time — has passed, or when the cluster
    retry budget is dry. When breakers are configured, a remote call to
    a destination whose breaker is open fails fast (no wire traffic);
    terminal failures feed the breaker, delivered replies reset it.
    [prio] sets the admission class on [dst]'s messenger queue.

    [ctx] traces the call: one child span per attempt (wire, remote
    service time and reply each nested under it), with "retry" /
    "timeout" / "deadline" / "budget-denied" / "shed" annotations — see
    {!Lion_trace.Trace}. *)

val replicate_commit : Cluster.t -> ?ctx:Lion_trace.Trace.ctx -> int list -> unit
(** [replicate_commit t parts] charges asynchronous replication traffic
    for a commit touching [parts]: one log record per secondary replica.
    Group-commit batching is modelled by the per-byte cost only (no
    blocking). A lost log record is retransmitted at once with the
    call backoff schedule (the stream is idempotent); exhausting the
    retries, or a dry retry budget, records a timeout and starts an
    anti-entropy repair that re-ships the replica's missing log suffix
    from a live peer (with backoff, bounded retries) until its applied
    watermark catches the log — so a long partition cannot leave a
    secondary permanently diverged. A destination with an open breaker
    skips the per-record stream entirely in favour of anti-entropy.
    [ctx] traces each log ship as an async "replication" span. *)

val breaker_state : Cluster.t -> int -> Lion_sim.Overload.Breaker.state
(** Current breaker state for calls to a node ([Closed] when breakers
    are disabled). Reading it ticks the breaker's clock, so an open
    breaker whose cooldown has elapsed reads [Half_open]. *)
