(* Keys are packed into one non-negative immediate: the partition in
   bits 32..61, the slot in bits 0..31, so [Int.compare] orders keys by
   (partition, slot). A key outside that range would alias another key,
   so [key] turns it into [unpackable], which every store operation
   refuses; [lsr] maps a negative field to a large one, so one test per
   field covers both ends. *)
type key = int

let slot_bits = 32
let slot_mask = (1 lsl slot_bits) - 1
let unpackable = -1

let key ~part ~slot =
  if part lsr 30 <> 0 || slot lsr slot_bits <> 0 then unpackable
  else (part lsl slot_bits) lor slot

let key_of_int k = k
let[@inline] part k = k lsr slot_bits
let[@inline] slot k = k land slot_mask
let key_compare = Int.compare

let pp_key fmt k =
  if k < 0 then Format.pp_print_string fmt "unpackable"
  else Format.fprintf fmt "P%d/%d" (part k) (slot k)

let[@inline] check k =
  if k < 0 then invalid_arg "Kvstore: key outside the packable range"

(* Fibonacci hashing: the top [63 - shift] bits of the product. *)
let multiplier = 0x1E3779B97F4A7C15
let[@inline] hash shift x = (x * multiplier) lsr shift

(* An open-addressing map from non-negative ints to non-negative ints,
   by linear probing over one flat array: [cells.(2i)] holds a key or
   [empty], [cells.(2i+1)] its value. A probe touches one cache line, no
   entry allocates a block, and lookups return the value or a default
   instead of an option. The capacity is a power of two and the table
   is at most three quarters full; a lower bound would cost memory, as
   a resize briefly holds both arrays. Removal shifts the rest of the
   probe run back instead of leaving tombstones. It holds the pending
   reservations and the partition index. *)
module Itbl = struct
  type t = { mutable cells : int array; mutable shift : int; mutable count : int }

  let empty = -1

  let create ~log2_capacity =
    { cells = Array.make (2 lsl log2_capacity) empty; shift = 63 - log2_capacity; count = 0 }

  let length t = t.count
  let[@inline] mask t = (Array.length t.cells lsr 1) - 1
  let[@inline] home t k = hash t.shift k

  (* Cell index of [k], or of the empty cell ending its probe run. *)
  let rec probe cells mask k i =
    let c = Array.unsafe_get cells (2 * i) in
    if c = k || c = empty then i else probe cells mask k ((i + 1) land mask)

  let find t k ~default =
    let i = probe t.cells (mask t) k (home t k) in
    if Array.unsafe_get t.cells (2 * i) = empty then default
    else Array.unsafe_get t.cells ((2 * i) + 1)

  let rec grow t =
    let old = t.cells in
    t.cells <- Array.make (2 * Array.length old) empty;
    t.shift <- t.shift - 1;
    t.count <- 0;
    for i = 0 to (Array.length old / 2) - 1 do
      let k = old.(2 * i) in
      if k <> empty then replace t k old.((2 * i) + 1)
    done

  (* Cell index of [k], inserting it with value 0 first if absent. *)
  and slot t k =
    let cells = t.cells in
    let i = probe cells (mask t) k (home t k) in
    if Array.unsafe_get cells (2 * i) <> empty then i
    else if 4 * (t.count + 1) > 3 * (Array.length cells lsr 1) then (
      grow t;
      slot t k)
    else (
      Array.unsafe_set cells (2 * i) k;
      Array.unsafe_set cells ((2 * i) + 1) 0;
      t.count <- t.count + 1;
      i)

  and replace t k v =
    let i = slot t k in
    Array.unsafe_set t.cells ((2 * i) + 1) v

  let remove t k =
    let cells = t.cells and mask = mask t in
    let hole = ref (probe cells mask k (home t k)) in
    if cells.(2 * !hole) <> empty then begin
      t.count <- t.count - 1;
      (* Move back every later entry of the run whose home does not lie
         cyclically between the hole and itself. *)
      let j = ref ((!hole + 1) land mask) in
      while cells.(2 * !j) <> empty do
        let k' = cells.(2 * !j) in
        if (!j - home t k') land mask >= (!j - !hole) land mask then (
          cells.(2 * !hole) <- k';
          cells.((2 * !hole) + 1) <- cells.((2 * !j) + 1);
          hole := !j);
        j := (!j + 1) land mask
      done;
      cells.(2 * !hole) <- empty
    end
end

(* One partition's versions: linear probing over one int array whose
   cells pack a slot (bits 31..62) and its version (bits 0..30). Only
   written keys are stored, so a stored version is at least 1 and the
   cell 0 can mark an empty one; a lookup that ends on it reads version
   0, the version of an unseen key, with no test. The capacity is a
   power of two, at most three quarters full, and nothing is ever
   removed.

   Since no cell is ever emptied, a slot stays in its cell and a probe
   run only grows until the table grows. So a probe that once ended at
   cell [i] may resume there for as long as the capacity is unchanged:
   the slot is still at [i] if it was found there, and if it was absent
   then, every cell from its home up to [i] was full and still is. A
   read records where its probe ended as a hint beside the version it
   saw (see [observe]); validation and install resume from it. *)
module Vtbl = struct
  type t = { mutable cells : int array; mutable shift : int; mutable count : int }

  let version_bits = 31
  let version_mask = (1 lsl version_bits) - 1

  let create ~log2_capacity =
    { cells = Array.make (1 lsl log2_capacity) 0; shift = 63 - log2_capacity; count = 0 }

  (* Cell index of [slot], or of the empty cell ending its probe run. *)
  let rec probe cells mask slot i =
    let c = Array.unsafe_get cells i in
    if c = 0 || c lsr version_bits = slot then i else probe cells mask slot ((i + 1) land mask)

  let[@inline] index t slot =
    let cells = t.cells in
    probe cells (Array.length cells - 1) slot (hash t.shift slot)

  (* An observed word: the version in bits 0..30, then the hint, the
     table's log2 capacity in bits 31..36 and the cell index in bits
     37..62. An index of 2^26 or more does not fit, so its word carries
     the log2 field 63, which matches no table. *)
  let log2_shift = version_bits
  let index_shift = 37
  let no_hint = 63 lsl log2_shift

  let[@inline] log2 t = 63 - t.shift

  (* [slot]'s version, with the hint to where its probe ended. *)
  let observe t slot =
    let i = index t slot in
    let v = Array.unsafe_get t.cells i land version_mask in
    if i lsr (63 - index_shift) = 0 then
      v lor (log2 t lsl log2_shift) lor (i lsl index_shift)
    else v lor no_hint

  (* Where to start probing for [slot] given a word [observe] returned
     on this table: its hinted cell if the capacity is unchanged, else
     the slot's home. *)
  let[@inline] start t slot word =
    if (word lsr log2_shift) land 63 = log2 t then word lsr index_shift
    else hash t.shift slot

  let[@inline] find t slot = Array.unsafe_get t.cells (index t slot) land version_mask

  let[@inline] index_from t slot word =
    let cells = t.cells in
    probe cells (Array.length cells - 1) slot (start t slot word)

  (* [slot]'s current version, resuming from [word]'s hint. *)
  let[@inline] find_from t slot word =
    Array.unsafe_get t.cells (index_from t slot word) land version_mask

  let grow t =
    let old = t.cells in
    let cells = Array.make (2 * Array.length old) 0 in
    t.cells <- cells;
    t.shift <- t.shift - 1;
    Array.iter (fun c -> if c <> 0 then cells.(index t (c lsr version_bits)) <- c) old

  (* Bump [slot]'s version, inserting it at version 1 if absent; true
     iff it was absent. The probe starts at [i]; a growth re-probes
     from home. *)
  let rec incr_at t slot i =
    let i = probe t.cells (Array.length t.cells - 1) slot i in
    let c = Array.unsafe_get t.cells i in
    if c <> 0 then (
      if c land version_mask = version_mask then failwith "Kvstore: version overflow";
      Array.unsafe_set t.cells i (c + 1);
      false)
    else if 4 * (t.count + 1) > 3 * Array.length t.cells then (
      grow t;
      incr_at t slot (hash t.shift slot))
    else (
      Array.unsafe_set t.cells i ((slot lsl version_bits) lor 1);
      t.count <- t.count + 1;
      true)

  let[@inline] incr_from t slot word = incr_at t slot (start t slot word)
end

(* [tables] holds each written partition's versions in creation order
   and [index] maps a partition to its position there; [last_part] and
   [last] cache the most recent lookup that found a table ([-1] and
   [no_table] before one does). [pending] maps a key to the session
   holding its reservation. *)
type t = {
  mutable tables : Vtbl.t array;
  index : Itbl.t;
  mutable last_part : int;
  mutable last : Vtbl.t;
  mutable touched : int;
  pending : Itbl.t;
  mutable next_session : int;
}

(* The table of every partition without one: always empty, never
   written. *)
let no_table = Vtbl.create ~log2_capacity:0

let create () =
  {
    tables = [||];
    index = Itbl.create ~log2_capacity:4;
    last_part = -1;
    last = no_table;
    touched = 0;
    pending = Itbl.create ~log2_capacity:6;
    next_session = 0;
  }

let table t part =
  if part = t.last_part then t.last
  else
    let i = Itbl.find t.index part ~default:(-1) in
    if i < 0 then no_table
    else (
      let v = Array.unsafe_get t.tables i in
      t.last_part <- part;
      t.last <- v;
      v)

(* [table t part], creating the partition's table if it has none. *)
let table_for_install t part =
  let v = table t part in
  if v != no_table then v
  else (
    let n = Itbl.length t.index in
    if n = Array.length t.tables then
      t.tables <- Array.append t.tables (Array.make (Int.max 8 n) no_table);
    let v = Vtbl.create ~log2_capacity:4 in
    t.tables.(n) <- v;
    Itbl.replace t.index part n;
    t.last_part <- part;
    t.last <- v;
    v)

let version t k =
  check k;
  Vtbl.find (table t (part k)) (slot k)

let touched_keys t = t.touched

(* A session's footprint in two flat int arrays: [reads] holds
   (key, observed word) pairs at [2i], [2i+1], the word being the
   version read and the hint of [Vtbl.observe]; [writes] holds, per
   write, the position in [reads] of the read the write recorded. Both
   are in access order and double when full. Recording an operation
   writes cells instead of consing a tuple and a list cell. *)
type session = {
  store : t;
  sid : int;
  mutable reads : int array;
  mutable n_reads : int;
  mutable writes : int array;
  mutable n_writes : int;
}

let begin_session ?(ops = 16) store =
  let sid = store.next_session in
  store.next_session <- sid + 1;
  let ops = if ops < 1 then 1 else ops in
  {
    store;
    sid;
    reads = Array.make (2 * ops) 0;
    n_reads = 0;
    writes = Array.make ops 0;
    n_writes = 0;
  }

let grown a = Array.append a (Array.make (Array.length a) 0)

let read s k =
  check k;
  let w = Vtbl.observe (table s.store (part k)) (slot k) in
  if 2 * s.n_reads = Array.length s.reads then s.reads <- grown s.reads;
  s.reads.(2 * s.n_reads) <- k;
  s.reads.((2 * s.n_reads) + 1) <- w;
  s.n_reads <- s.n_reads + 1

let write s k =
  read s k;
  if s.n_writes = Array.length s.writes then s.writes <- grown s.writes;
  s.writes.(s.n_writes) <- s.n_reads - 1;
  s.n_writes <- s.n_writes + 1

let[@inline] write_key s i = s.reads.(2 * s.writes.(i))

let read_set s = List.init s.n_reads (fun i -> s.reads.(2 * i))

let observed_reads s =
  List.init s.n_reads (fun i -> (s.reads.(2 * i), s.reads.((2 * i) + 1) land Vtbl.version_mask))

let write_set s = List.init s.n_writes (write_key s)
let write_count s = s.n_writes

(* Whether read [i]'s version is still current. No range check: [read]
   made it. *)
let[@inline] current s i =
  let k = s.reads.(2 * i) and w = s.reads.((2 * i) + 1) in
  Vtbl.find_from (table s.store (part k)) (slot k) w = w land Vtbl.version_mask

(* The read checks are pure, so their order does not matter; the write
   loops below run newest first, the order the list representation
   visited them in, so the tables are filled in the same order. *)
let validate s =
  let rec go i = i >= s.n_reads || (current s i && go (i + 1)) in
  go 0

let no_session = -1

(* Every read current and no read key reserved by another session. *)
let reservable s =
  let pending = s.store.pending and sid = s.sid in
  let free = Itbl.length pending = 0 in
  let rec go i =
    i >= s.n_reads
    || current s i
       && (free
          ||
          let holder = Itbl.find pending s.reads.(2 * i) ~default:no_session in
          holder = no_session || holder = sid)
       && go (i + 1)
  in
  go 0

let try_reserve s =
  if reservable s then (
    for i = s.n_writes - 1 downto 0 do
      Itbl.replace s.store.pending (write_key s i) s.sid
    done;
    true)
  else false

let release_reservation s =
  let pending = s.store.pending in
  for i = s.n_writes - 1 downto 0 do
    let k = write_key s i in
    if Itbl.find pending k ~default:no_session = s.sid then Itbl.remove pending k
  done

let install s =
  let store = s.store in
  for i = s.n_writes - 1 downto 0 do
    let r = s.writes.(i) in
    let k = s.reads.(2 * r) in
    if Vtbl.incr_from (table_for_install store (part k)) (slot k) s.reads.((2 * r) + 1) then
      store.touched <- store.touched + 1
  done

let finalize s =
  install s;
  release_reservation s

let try_commit s =
  if reservable s then (
    install s;
    true)
  else false

let commit_session = install
