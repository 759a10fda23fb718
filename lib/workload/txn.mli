(** Transaction descriptors.

    A transaction is a flat array of operations, each one immediate: a
    read is its key, a write is the complement ([lnot]) of its key, so
    an operation keeps the whole packable key range and a transaction
    costs one block for its operations. Its TxnParts — the distinct
    partitions touched — is what the planner's heat graph and the
    router consume (§IV-A: partitions are known after SQL parsing /
    query optimisation, recorded in TxnMeta). *)

type op = private int

val read : Lion_store.Kvstore.key -> op
val write : Lion_store.Kvstore.key -> op
(** Both raise [Invalid_argument] on an unpackable key. *)

val key_of : op -> Lion_store.Kvstore.key
val is_write : op -> bool

type t = {
  id : int;
  ops : op array;
  parts : int list;  (** distinct partitions, ascending *)
}

val make : id:int -> op array -> t
(** Computes [parts] from the operations. *)

val is_cross_partition : t -> bool
(** More than one distinct partition. *)

val parts_of_ops : op array -> int list

val read_keys : t -> Lion_store.Kvstore.key list
val write_keys : t -> Lion_store.Kvstore.key list
val write_count : t -> int

val pp : Format.formatter -> t -> unit
