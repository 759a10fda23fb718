type t = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  half_pow_theta : float;
}

(* zeta(n, theta) = sum_{i=1..n} 1/i^theta, computed directly for small n
   and via the Euler–Maclaurin two-term approximation for large n, which
   caps the cost at 10^4 terms while staying within a fraction of a
   percent — accuracy that only perturbs the skew marginally. *)
let zeta n theta =
  if n <= 10_000 then (
    let acc = ref 0.0 in
    for i = 1 to n do
      acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    !acc)
  else (
    let m = 10_000 in
    let acc = ref 0.0 in
    for i = 1 to m do
      acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    (* integral tail from m to n of x^-theta dx plus endpoint correction *)
    let fm = float_of_int m and fn = float_of_int n in
    let tail =
      if Float.abs (theta -. 1.0) < 1e-9 then log (fn /. fm)
      else (Float.pow fn (1.0 -. theta) -. Float.pow fm (1.0 -. theta)) /. (1.0 -. theta)
    in
    !acc +. tail)

(* The sum above is most of a YCSB cell's set-up, and a process asks
   for few (n, theta) pairs: the 8 latest are kept, in an immutable list
   swapped by compare-and-set, so domains building generators share it. *)
let memo = Atomic.make []

let memo_zeta n theta =
  match List.assoc_opt (n, theta) (Atomic.get memo) with
  | Some z -> z
  | None ->
      let z = zeta n theta in
      let rec store () =
        let old = Atomic.get memo in
        let next = ((n, theta), z) :: List.filteri (fun i _ -> i < 7) old in
        if not (Atomic.compare_and_set memo old next) then store ()
      in
      store ();
      z

let create ~n ~theta =
  assert (n > 0);
  assert (theta >= 0.0);
  if theta = 0.0 then
    { n; theta; alpha = 0.0; zetan = 0.0; eta = 0.0; half_pow_theta = 0.0 }
  else (
    let zetan = memo_zeta n theta in
    let zeta2 = zeta 2 theta in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. zetan))
    in
    { n; theta; alpha; zetan; eta; half_pow_theta = 0.5 ** theta })

(* YCSB's default key skew, theta = 0.6, makes [alpha] exactly 2.5
   (1 - 0.6 is exact, and 1 / 0.4 rounds to 2.5), and [Float.pow] with
   that exponent is most of a draw's cost. With u = 2^-53, the unit
   roundoff, [b *. b *. sqrt b] is three correctly rounded operations,
   so within a relative 3u of b^2.5, and [Float.pow] is within 1 ulp
   (2u); with one more rounding each for the product with [scale], the
   two values differ by at most 7u, under 8e-16 of their size. Only
   truncation reads the result, and two values that close truncate
   alike unless an integer lies between them. So the fast value is
   kept only when it lies more than [margin] of itself (1e-13, over
   100 times the bound) from every integer, and [Float.pow] decides
   the rest: 2 of 5e7 draws of the default YCSB stream. *)
let default_margin = 1e-13

let[@inline] pow25 ~margin scale b =
  let v = scale *. (b *. b *. sqrt b) in
  let frac = v -. Float.of_int (int_of_float v) in
  if frac > margin *. v && 1.0 -. frac > margin *. v then v else scale *. Float.pow b 2.5

let scaled_pow25 ?(margin = default_margin) scale b = pow25 ~margin scale b

let sample t rng =
  if t.theta = 0.0 then Rng.int rng t.n
  else (
    let u = Rng.float rng 1.0 in
    let uz = u *. t.zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. t.half_pow_theta then 1
    else (
      let b = (t.eta *. u) -. t.eta +. 1.0 in
      let v =
        (* [pow25] inlines here, so no float is boxed per draw. *)
        if t.alpha = 2.5 then pow25 ~margin:default_margin (float_of_int t.n) b
        else float_of_int t.n *. Float.pow b t.alpha
      in
      let k = int_of_float v in
      if k < 0 then 0 else if k >= t.n then t.n - 1 else k))

let n t = t.n
let theta t = t.theta
let zetan t = t.zetan
