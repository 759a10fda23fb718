module Running = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable minv : float;
    mutable maxv : float;
  }

  let create () = { n = 0; mean = 0.0; m2 = 0.0; minv = infinity; maxv = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.minv then t.minv <- x;
    if x > t.maxv then t.maxv <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = if t.n = 0 then 0.0 else t.minv
  let max t = if t.n = 0 then 0.0 else t.maxv

  let reset t =
    t.n <- 0;
    t.mean <- 0.0;
    t.m2 <- 0.0;
    t.minv <- infinity;
    t.maxv <- neg_infinity
end

let percentile_of_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else if n = 1 then sorted.(0)
  else (
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac))

module Reservoir = struct
  type t = {
    capacity : int;
    samples : float array;
    mutable filled : int;
    mutable seen : int;
    mutable sum : float;
    rng : Rng.t;
  }

  let create ?(capacity = 8192) rng =
    { capacity; samples = Array.make capacity 0.0; filled = 0; seen = 0; sum = 0.0; rng }

  let add t x =
    t.seen <- t.seen + 1;
    t.sum <- t.sum +. x;
    if t.filled < t.capacity then (
      t.samples.(t.filled) <- x;
      t.filled <- t.filled + 1)
    else (
      let j = Rng.int t.rng t.seen in
      if j < t.capacity then t.samples.(j) <- x)

  let count t = t.seen

  let percentile t p =
    if t.filled = 0 then 0.0
    else (
      let sorted = Array.sub t.samples 0 t.filled in
      Array.sort compare sorted;
      percentile_of_sorted sorted p)

  let mean t = if t.seen = 0 then 0.0 else t.sum /. float_of_int t.seen

  let reset t =
    t.filled <- 0;
    t.seen <- 0;
    t.sum <- 0.0
end

let mean_of xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let mean_range series ~from_ ~until =
  let lo = Stdlib.max 0 from_ and hi = Stdlib.min (Array.length series) until in
  if hi <= lo then 0.0
  else (
    let sum = ref 0.0 in
    for i = lo to hi - 1 do
      sum := !sum +. series.(i)
    done;
    !sum /. float_of_int (hi - lo))

let cosine_similarity a b =
  assert (Array.length a = Array.length b);
  let dot = ref 0.0 and na = ref 0.0 and nb = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    dot := !dot +. (a.(i) *. b.(i));
    na := !na +. (a.(i) *. a.(i));
    nb := !nb +. (b.(i) *. b.(i))
  done;
  if !na = 0.0 || !nb = 0.0 then 0.0 else !dot /. (sqrt !na *. sqrt !nb)
