(** Lion's transaction router (§III).

    Each router instance carries the same cost model as the planner and
    dispatches a transaction to the node where the execution cost is
    lowest — the node with the most requisite replicas: all primaries
    beats all-replicas-some-secondary (remaster cost) beats missing
    replicas (2PC cost). Each live node is priced once per call. Ties
    (live nodes within 1e-9 of the cheapest) break by a hash of the
    transaction's partition list, never by load: transactions over the
    same partitions always pick the same node, while distinct partition
    sets spread across their tied candidates. *)

type t

val create : Lion_store.Cluster.t -> Lion_analysis.Costmodel.t -> t

val route : t -> Lion_workload.Txn.t -> int

val cost_model : t -> Lion_analysis.Costmodel.t
