(** System-wide cost and sizing parameters for the simulated database.

    Defaults follow the paper's testbed (§VI-A): 8 worker threads per
    executor node, 2 initial replicas per partition, a maximum of 4,
    remaster delay 300 µs, ~1 GbE network. All costs are in simulated
    microseconds, all sizes in bytes. *)

(** Admission control: who waits, and who is turned away. *)
type admission = {
  queue_cap : int;
      (** bound on each node's worker/service wait queue; 0 = unbounded
          (a [Codel] policy still sheds by sojourn time) *)
  shed_policy : Lion_sim.Server.shed_policy;  (** who is turned away *)
}

(** Global token bucket; each RPC/log-ship retransmission takes one
    token and a dry bucket makes the caller give up. *)
type retry_budget = {
  rate : float;  (** refill, tokens per simulated second (> 0) *)
  burst : float;  (** bucket capacity *)
}

type breaker = {
  threshold : int;  (** consecutive terminal RPC failures that trip it (> 0) *)
  cooldown : float;  (** µs a tripped breaker stays open before half-open probing *)
}

type deadline = {
  after : float;
      (** µs from first submission: a commit landing later counts as a
          deadline miss, discounted from goodput (> 0) *)
  enforce : bool;
      (** if true, a transaction past the deadline is also {e shed}:
          aborted attempts stop retrying and in-flight RPCs stop
          retransmitting. false keeps it a pure measurement SLO — the
          metastable repro's unprotected baseline *)
}

type geo = {
  regions : int;
      (** number of geographic regions (≥ 2) the node slots divide into,
          as contiguous blocks of node ids — see [region_of_node] *)
  wan_latency : float;  (** one-way µs between nodes of different regions *)
  wan_per_byte : float;  (** µs per byte on a cross-region link *)
  min_regions : int;
      (** minimum distinct regions each partition's replica set must
          span, kept at creation and by the rebalancer; below 2 = no
          constraint *)
}

type elastic = {
  standby_nodes : int;
      (** pre-provisioned node slots beyond [nodes] that start outside
          the membership; [Cluster.join_node] activates them *)
  rebalance_rate : float;
      (** background migration steps per simulated second (> 0): join
          catch-up, decommission draining, under-replication repair *)
}

type t = {
  nodes : int;  (** executor node count (paper default 4) *)
  partitions_per_node : int;  (** initial partitions hosted per node *)
  workers_per_node : int;  (** worker threads per node (paper: 8) *)
  replicas : int;  (** initial replicas per partition (paper: 2) *)
  max_replicas : int;  (** replica cap per partition (paper: 4) *)
  txn_setup_cost : float;  (** per-transaction CPU µs at the coordinator (parsing, context) *)
  local_op_cost : float;  (** CPU µs to execute one local read/write *)
  msg_handle_cost : float;  (** CPU µs consumed at a message receiver *)
  net_latency : float;  (** one-way network latency, µs *)
  net_per_byte : float;  (** µs per byte on the wire *)
  op_msg_bytes : int;  (** request/response size for one operation *)
  record_bytes : int;  (** payload of one data record *)
  remaster_delay : float;
      (** leader-transfer duration, µs. Default 300 (log tail sync +
          leader handover on a LAN); §VI-C1 experiments explicitly set
          the paper's stress value of 3000 *)
  remaster_cooldown : float;
      (** minimum µs between two remasters of the same partition —
          damps ping-pong; transactions losing the race fall back to 2PC *)
  partition_bytes : int;  (** bytes copied when adding a replica *)
  migration_cpu_cost : float;
      (** worker CPU µs consumed on {e each} of the source and
          destination nodes per replica addition — the interference that
          makes migration-heavy strategies pay (§II-B) *)
  replica_add_duration : float;  (** background copy duration, µs *)
  election_delay : float;
      (** leader-election span after a node failure before an affected
          partition's surviving secondary is promoted, µs *)
  group_commit_interval : float;  (** epoch length for group commit, µs *)
  batch_size : int;  (** batch execution epoch size (paper: 10k) *)
  rpc_timeout : float;
      (** µs a sender waits for an RPC reply before declaring the
          attempt lost (see docs/FAULTS.md) *)
  rpc_retries : int;
      (** bounded retransmissions after the first attempt; once
          exhausted the caller's [on_fail] fires *)
  rpc_backoff : float;
      (** base µs of the exponential backoff between RPC retries
          (doubles per attempt) *)
  fault_plan : Lion_sim.Fault.plan;
      (** scheduled crashes / partitions / drop / jitter / stragglers
          injected into this cluster (default: none) *)
  admission : admission option;
      (** bounded worker/service wait queues with a shed policy;
          [None] (default) = unbounded queues (docs/OVERLOAD.md) *)
  control_priority : bool;
      (** if true, remaster/replication control work runs at
          [Server.High] priority, ahead of user transactions and exempt
          from shedding (default false) *)
  retry_budget : retry_budget option;
      (** global retry budget drawn on by every RPC/log-ship
          retransmission; [None] (default) = unlimited retries *)
  breaker : breaker option;
      (** per-destination circuit breakers; [None] (default) = off *)
  deadline : deadline option;
      (** client patience; [None] (default) = no deadline, goodput =
          throughput *)
  geo : geo option;
      (** region topology, WAN link class and placement spread;
          [None] (default) = region-free: the network has a single
          latency class (docs/GEO.md) *)
  elastic : elastic option;
      (** standby slots and the background rebalancer; [None]
          (default) freezes the membership at [nodes]
          (docs/MEMBERSHIP.md) *)
  session_tagging : bool;
      (** if true, every replication / remaster stream carries a
          session id ([Replication.session]) and deliveries from a
          session opened before the destination left and rejoined the
          membership are rejected (counted as
          [Metrics.stale_ack_rejections]). false (default) reproduces
          the classic stale-replication-ack hazard — see
          docs/MEMBERSHIP.md for the openraft/Ra comparison *)
}

val default : t
(** The paper's default configuration: 4 nodes, 8 workers, 2 replicas,
    max 4, remaster 300 µs, and every optional subsystem [None]. *)

val total_partitions : t -> int
val total_workers : t -> int

val total_slots : t -> int
(** [nodes] plus the elastic standby slots: the size of every per-node
    structure. Equals [nodes] without [elastic]. *)

val with_nodes : t -> int -> t
(** Scale the cluster size keeping per-node density fixed (Fig. 11). *)

(** Each optional subsystem's starting point; the experiments sweep
    around them (docs/OVERLOAD.md, docs/GEO.md, docs/MEMBERSHIP.md). *)

val default_admission : admission  (** cap 64, reject-newest *)

val default_retry_budget : retry_budget  (** 2000 tokens/s, burst 64 *)

val default_breaker : breaker  (** threshold 8, cooldown 50 ms *)

val default_deadline : deadline  (** 200 ms, enforced *)

val default_geo : geo
(** 2 regions, [min_regions] 2, WAN 50 ms one-way at 0.05 µs/byte *)

val default_elastic : elastic  (** 2 standby slots, 50 migrations/s *)

val with_overload_defaults : t -> t
(** [admission], [retry_budget], [breaker] and [deadline] at their
    starting points, plus [control_priority]. *)

val with_elastic_defaults : t -> t
(** [elastic] at its starting point, plus [session_tagging], so streams
    from before a crash/rejoin cannot corrupt watermarks. *)

val misses_deadline : t -> float -> bool
(** Whether a commit [latency] µs after first submission is past the
    [deadline]; always false without one. *)

val region_of_node : t -> int -> int
(** Region of a node slot under the contiguous block layout: the
    [total_slots] ids divide into [regions] consecutive blocks (nodes
    0..k-1 form region 0, and so on). Always 0 without [geo]. *)
