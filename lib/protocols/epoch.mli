(** Epoch-based optimistic commit for geo-replication (docs/GEO.md).

    Modelled after "Epoch-based Optimistic Concurrency Control in
    Geo-replicated Databases" (PAPERS.md): transactions execute
    optimistically at their coordinator — no per-operation cross-node
    round trips — and park until the next epoch boundary. The boundary
    validates the whole batch in arrival order ([Kvstore.try_reserve],
    so same-epoch conflicts abort-and-retry) and runs {e one} grouped
    replication round to one live peer per remote region, holding the
    write reservations until it resolves. A cross-region transaction
    therefore pays amortised WAN cost instead of per-transaction WAN
    rounds — the regime where Lion's remastering (a per-transfer WAN
    latency cliff) loses, and the crossover the geo sweep reproduces.

    On a region-free cluster the replication round has no peers and the
    protocol degrades to boundary-validated local OCC, which is how the
    consistency audit exercises it under the standard nemesis matrix.

    [on_done] fires at coordinator-worker release (park time), like the
    standard protocols, so closed-loop clients stay worker-bound; an
    epoch whose replication round fails (region unreachable through the
    RPC retry schedule) aborts all its reserved transactions, which
    re-execute in a later epoch. *)

val create : Lion_store.Cluster.t -> Proto.t
(** Epochs are 20 ms long: optimistic execution parks until the next
    boundary, where validation and one cross-region replication round
    happen for the whole epoch. *)
