(** Lotus baseline (§VI-A2b): epoch-based execution with granule locks.

    Granule locks (key ranges coarser than rows, finer than partitions)
    are acquired in batch order and held to the end of the epoch;
    conflicting transactions abort and re-execute next epoch — under
    contention this re-execution loop is Lotus' degradation mode as the
    paper notes ("Lotus maintains locks until the end of an epoch,
    leading to transaction aborts and re-executions"). Commit and
    replication are asynchronous and overlap with computation, giving
    Lotus near-zero scheduling overhead and strong low-cross-ratio
    performance. A granule is 16 consecutive rows of one partition. *)

val create : Lion_store.Cluster.t -> Proto.t
