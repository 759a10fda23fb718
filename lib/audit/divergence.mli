(** Replica-divergence audit at quiescence.

    Run after the event queue has drained (no in-flight log ships, no
    open elections). Two comparisons:

    - {b log-apply watermarks}: every live holder of a partition
      replica (primary and secondaries) must have applied the
      partition's full replication log — remasters, failover
      elections, replica installs, recovery resyncs and anti-entropy
      repairs all advance {!Lion_store.Replication.applied}, so a
      replica still behind at quiescence has genuinely diverged;
    - {b history cross-check} (when a {!Lion_store.History} sink is
      supplied): the highest version the history claims each key
      reached must exist in a store — the cluster's real [Kvstore] for
      standard engines, the sink's shadow for analytic batch engines.
      A missing version is a lost write. *)

type finding =
  | Replica_behind of { part : int; node : int; applied : int; log_len : int }
  | Stale_replica of { part : int; node : int; durable : int; log_len : int }
      (** the believed watermark claims the replica is caught up, but
          its storage durably holds less than the log — the signature a
          stale replication session leaves when its install or ack is
          accepted after the node crashed and rejoined. The cluster
          refuses stale sessions, so the crash-rejoin nemesis reproduces
          it only under [Cluster.reintroduce_stale_sessions]
          (docs/MEMBERSHIP.md) *)
  | Lost_write of {
      key : Lion_store.Kvstore.key;
      history_version : int;
      store_version : int;
    }

type report = {
  partitions : int;
  replicas_checked : int;  (** live replica holders examined *)
  findings : finding list;  (** deterministic order: by partition, then key *)
}

val audit : ?history:Lion_store.History.t -> Lion_store.Cluster.t -> report
val clean : report -> bool
val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> report -> unit
