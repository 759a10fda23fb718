(** Sparse versioned key-value store with OCC sessions.

    Keys name a (partition, slot) pair. Only versions are materialised —
    payload bytes are modelled as message sizes by the simulator — and
    only touched keys occupy memory, so a "24 M items per node" YCSB
    dataset costs nothing until accessed. Each written partition has
    its own open-addressing table of one-word cells, a slot and its
    version packed into one int, so an entry costs one word of a flat
    array and no block of its own, and a table grows without copying
    the others. A version is at most 2{^31} - 1: an install past it
    raises [Failure] instead of wrapping.

    Concurrency control is classic backward-validation OCC: a session
    records the version of every key it reads (writes are treated as
    read-modify-writes, as in YCSB and TPC-C), [validate] checks those
    versions are unchanged, and [commit_session] installs the writes by
    bumping versions. Because the simulator executes events in global
    time order, reading the table at simulated read time and validating
    at simulated commit time is exactly serializable-history OCC. *)

type key = private int
(** A (partition, slot) pair packed into one immediate: the partition
    in bits 32..61, the slot in bits 0..31. *)

val key : part:int -> slot:int -> key
(** A partition outside [0, 2{^30}) or a slot outside [0, 2{^32})
    cannot be packed without aliasing another key; [key] returns an
    unpackable key for it, on which every store operation below raises
    [Invalid_argument]. *)

val key_of_int : int -> key
(** The inverse of [(k :> int)]: every non-negative int packs some
    key; a negative one is unpackable. *)

val part : key -> int
val slot : key -> int

val key_compare : key -> key -> int
(** [Int.compare]: the (partition, slot) order. *)

val pp_key : Format.formatter -> key -> unit

type t

val create : unit -> t

val version : t -> key -> int
(** Current version; unseen keys are at version 0. *)

val touched_keys : t -> int
(** Number of distinct keys ever written. *)

(** An in-flight transaction's footprint, kept in flat int arrays that
    grow as needed; the list accessors below build their lists on
    demand. Beside each version it read, a session keeps where that
    read's probe ended, so validating or installing the key usually
    probes one cell. *)
type session

val begin_session : ?ops:int -> t -> session
(** [ops] (default 16), the number of operations the session is
    expected to record, sizes its arrays; they grow past it. *)

val read : session -> key -> unit
(** Record a read of [key] at its current version. *)

val write : session -> key -> unit
(** Record a read-modify-write of [key]. *)

val read_set : session -> key list
(** Every recorded key in access order (writes included). *)

val observed_reads : session -> (key * int) list
(** Every recorded read with the version it observed, in access order
    (writes appear too — they are read-modify-writes). *)

val write_set : session -> key list
(** Written keys in access order, repeats included. *)

val write_count : session -> int
(** [List.length (write_set s)], without building the list. *)

val validate : session -> bool
(** True iff every recorded version is still current. *)

val try_reserve : session -> bool
(** Atomic validate-and-lock at commit time: checks every recorded
    version is current {e and} no touched key carries another session's
    pending write, then marks this session's writes pending. Returns
    false (reserving nothing) on any conflict. This is the
    validation-to-install critical section real OCC engines hold — it
    prevents two concurrently-validating transactions from both
    committing conflicting writes. *)

val finalize : session -> unit
(** Install a reserved session's writes (bump versions) and clear its
    pending marks. Must follow a successful [try_reserve]. *)

val try_commit : session -> bool
(** Validate and install in one step, for a session holding no
    reservation: checks what [try_reserve] checks, then installs as
    [finalize] does, and never marks or clears a pending write.
    [try_commit s] behaves as [try_reserve s && (finalize s; true)]. *)

val release_reservation : session -> unit
(** Clear pending marks without installing (a post-reserve abort, e.g.
    a 2PC participant voted no). *)

val commit_session : session -> unit
(** [try_reserve]-free install for single-threaded callers/tests. *)

