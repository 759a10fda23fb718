(* The 64-bit SplitMix state lives unboxed in 8 bytes of a [Bytes.t]
   rather than in a mutable [int64] field: every store to an [int64]
   field allocates a fresh box, once per draw. [Bytes] int64 accesses
   compile to plain loads and stores, and with [step] inlined each draw
   keeps its intermediate [int64]s in registers. Every state is built
   by [of_state], 8 bytes long, so the unchecked accesses are in
   bounds. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] step t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))
let split t = of_state (mix64 (step t))

(* A non-negative 62-bit integer: safe to use with [mod] on 64-bit OCaml. *)
let int t bound =
  assert (bound > 0);
  Int64.to_int (Int64.shift_right_logical (step t) 2) mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (step t) 11) in
  (* 53 significant bits, uniform in [0,1). *)
  x /. 9007199254740992.0 *. bound

let bool t = Int64.logand (step t) 1L = 1L
let bernoulli t p = float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let exponential t mean =
  let u = Float.max 1e-12 (float t 1.0) in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = Float.max 1e-12 (float t 1.0) in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
