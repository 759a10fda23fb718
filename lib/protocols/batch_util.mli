(** Shared cost accounting for the analytic batch-epoch protocols. *)

val ops_work : Lion_workload.Txn.t -> float
(** CPU µs to execute a whole transaction: per-transaction setup plus
    all of its operations. *)

val part_ops_work : Lion_workload.Txn.t -> part:int -> float
(** CPU µs for the operations touching one partition. *)

val rt_block : Lion_store.Cluster.t -> float
(** The blocking span of one remote-operation round trip (wire delay
    both ways plus remote handling). *)

val home_node : Lion_store.Cluster.t -> Lion_workload.Txn.t -> int
(** Node holding most of the transaction's primaries. *)

val charge_replication : Lion_store.Cluster.t -> Lion_workload.Txn.t -> unit
(** Account (eventless) replication bytes of a committed transaction:
    one log record per write per secondary replica. *)

val touch : Lion_store.Cluster.t -> Lion_workload.Txn.t -> unit
(** Bump partition access counters for every touched partition. *)

val lock_grant_cost : float
(** Serial per-transaction cost of a single-threaded lock manager /
    sequencer (µs) — the deterministic protocols' scalability ceiling
    (Fig. 11's plateau). *)
