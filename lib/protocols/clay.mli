(** Clay baseline (§VI-A2a): online load-triggered repartitioning.

    Execution is plain OCC + 2PC. A periodic monitor compares per-node
    worker busy time; when the hottest node exceeds the average by the
    imbalance threshold, Clay builds a co-access graph of the recent
    window, clusters it, and moves clumps whose primaries sit on the
    overloaded node to the coldest node (async replication + eager
    remastering, as the paper grants its Clay implementation).

    Clay's defining blind spot is preserved: the trigger is load
    imbalance only — a balanced cluster full of distributed
    transactions never repartitions ("Clay perceives the overloaded node
    running single-node transactions as having an equal load to nodes
    with fewer distributed transactions"). *)

val create : Lion_store.Cluster.t -> Proto.t
(** The monitor triggers when max_load > avg·(1 + 0.25). The harness
    calls [tick] periodically. *)
