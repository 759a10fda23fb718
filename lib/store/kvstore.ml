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

(* An open-addressing map from packed keys to non-negative ints, by
   linear probing over one flat array: [cells.(2i)] holds a key or
   [empty], [cells.(2i+1)] its value. A probe touches one cache line, no
   entry allocates a block, and lookups return the value or a default
   instead of an option. The capacity is a power of two and the table
   is at most three quarters full; a lower bound would cost memory, as
   a resize briefly holds both arrays. Removal shifts the rest of the
   probe run back instead of leaving tombstones. *)
module Itbl = struct
  type t = { mutable cells : int array; mutable shift : int; mutable count : int }

  let empty = -1

  (* Fibonacci hashing: the top [log2 capacity] bits of the product. *)
  let multiplier = 0x1E3779B97F4A7C15

  let create ~log2_capacity =
    { cells = Array.make (2 lsl log2_capacity) empty; shift = 63 - log2_capacity; count = 0 }

  let length t = t.count
  let[@inline] mask t = (Array.length t.cells lsr 1) - 1
  let[@inline] home t k = (k * multiplier) lsr t.shift

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

  (* [replace t k (find t k ~default:0 + 1)] in one probe. *)
  let incr t k =
    let i = slot t k in
    Array.unsafe_set t.cells ((2 * i) + 1) (Array.unsafe_get t.cells ((2 * i) + 1) + 1)

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

(* [versions] maps a key to its version (absent = 0); [pending] maps a
   key to the session holding its reservation. *)
type t = { versions : Itbl.t; pending : Itbl.t; mutable next_session : int }

let create () =
  {
    versions = Itbl.create ~log2_capacity:12;
    pending = Itbl.create ~log2_capacity:6;
    next_session = 0;
  }

(* [stored_version] skips the range check: its callers hold keys a
   session already checked. *)
let stored_version t k = Itbl.find t.versions k ~default:0

let version t k =
  check k;
  stored_version t k

let touched_keys t = Itbl.length t.versions

(* A session's footprint in two flat int arrays: [reads] holds
   (key, observed version) pairs at [2i], [2i+1], [writes] one key per
   cell, both in access order and both doubling when full. Recording an
   operation writes cells instead of consing a tuple and a list cell. *)
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
  let v = version s.store k in
  if 2 * s.n_reads = Array.length s.reads then s.reads <- grown s.reads;
  s.reads.(2 * s.n_reads) <- k;
  s.reads.((2 * s.n_reads) + 1) <- v;
  s.n_reads <- s.n_reads + 1

let write s k =
  read s k;
  if s.n_writes = Array.length s.writes then s.writes <- grown s.writes;
  s.writes.(s.n_writes) <- k;
  s.n_writes <- s.n_writes + 1

let read_set s = List.init s.n_reads (fun i -> s.reads.(2 * i))
let observed_reads s =
  List.init s.n_reads (fun i -> (s.reads.(2 * i), s.reads.((2 * i) + 1)))
let write_set s = Array.to_list (Array.sub s.writes 0 s.n_writes)
let write_count s = s.n_writes

(* The read checks are pure, so their order does not matter; the write
   loops below run newest first, the order the list representation
   visited them in, so the tables are filled in the same order. *)
let validate s =
  let rec go i =
    i >= s.n_reads
    || (stored_version s.store s.reads.(2 * i) = s.reads.((2 * i) + 1) && go (i + 1))
  in
  go 0

let no_session = -1

let reservable s =
  let store = s.store and sid = s.sid and reads = s.reads in
  let rec go i =
    i >= s.n_reads
    ||
    let k = reads.(2 * i) in
    stored_version store k = reads.((2 * i) + 1)
    && (let holder = Itbl.find store.pending k ~default:no_session in
        holder = no_session || holder = sid)
    && go (i + 1)
  in
  go 0

let try_reserve s =
  if reservable s then (
    for i = s.n_writes - 1 downto 0 do
      Itbl.replace s.store.pending s.writes.(i) s.sid
    done;
    true)
  else false

let release_reservation s =
  let pending = s.store.pending in
  for i = s.n_writes - 1 downto 0 do
    let k = s.writes.(i) in
    if Itbl.find pending k ~default:no_session = s.sid then Itbl.remove pending k
  done

let install s =
  for i = s.n_writes - 1 downto 0 do
    Itbl.incr s.store.versions s.writes.(i)
  done

let finalize s =
  install s;
  release_reservation s

let commit_session = install
