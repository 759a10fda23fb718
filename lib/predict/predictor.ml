module Rng = Lion_kernel.Rng
module Txn = Lion_workload.Txn

type prediction = { parts : int list; weight : float }

type t = {
  registry : Template.t;
  forecaster : Forecaster.t;
  rng : Rng.t;
  gamma : float;
  w_p : float;
  mutable last_wv : float;
  mutable last_classes : int;
}

(* Arrival-rate sampling interval, µs (Eq. 5's i). *)
let interval = 1e6

(* Periods of history per forecast (the paper's "preceding
   ten-period"). *)
let window = 10

(* Cosine-distance merge threshold of workload classification. *)
let beta = 0.15

(* Periods ahead to forecast (Eq. 6's h). *)
let horizon = 3

(* Templates reservoir-sampled per rising workload. *)
let samples_per_class = 8

let create ?(seed = 17) ?(gamma = 0.30) ?(w_p = 1.0) ?(use_lstm = true) () =
  {
    registry = Template.create ~interval ();
    forecaster = Forecaster.create ~seed:(seed + 1) ~window ~use_lstm ();
    rng = Rng.create seed;
    gamma;
    w_p;
    last_wv = 0.0;
    last_classes = 0;
  }

let observe t ~time txn =
  if t.w_p > 0.0 then ignore (Template.observe t.registry ~time ~parts:txn.Txn.parts)

(* Current rate of a class: mean of its last two buckets, which smooths
   the partially-filled current bucket. *)
let current_rate series =
  let n = Array.length series in
  if n = 0 then 0.0
  else if n = 1 then series.(n - 1)
  else (series.(n - 1) +. series.(n - 2)) /. 2.0

let analyze t ~time =
  if t.w_p <= 0.0 then []
  else (
    (* Exclude the in-progress bucket: its partial count would look
       like a collapse and spuriously fire the wv trigger every tick. *)
    let upto = Template.bucket_of_time t.registry time in
    let classes = Classify.classify ~upto t.registry ~window:(2 * window) ~beta in
    t.last_classes <- List.length classes;
    if classes = [] then (
      t.last_wv <- 0.0;
      [])
    else (
      let per_class =
        List.map
          (fun (w : Classify.workload) ->
            let anchor = match w.templates with [] -> w.class_id | id :: _ -> id in
            let predicted = Forecaster.forecast t.forecaster ~key:anchor ~series:w.series ~horizon in
            (w, current_rate w.series, predicted))
          classes
      in
      let n = float_of_int (List.length per_class) in
      let sq_sum =
        List.fold_left
          (fun acc (_, cur, pred) -> acc +. ((pred -. cur) *. (pred -. cur)))
          0.0 per_class
      in
      let mean_rate =
        List.fold_left (fun acc (_, cur, _) -> acc +. cur) 0.0 per_class /. n
      in
      let wv = sqrt (sq_sum /. n) in
      t.last_wv <- (if mean_rate > 0.0 then wv /. mean_rate else wv);
      if t.last_wv <= t.gamma then []
      else
        (* A significant shift is imminent: emit co-access hints for
           every workload predicted to grow. *)
        List.concat_map
          (fun ((w : Classify.workload), cur, pred) ->
            if pred <= cur || pred <= 0.0 then []
            else (
              let sampled =
                Classify.sample_templates w t.registry ~rng:t.rng ~k:samples_per_class
              in
              List.filter_map
                (fun id ->
                  match Template.parts_of t.registry id with
                  | [] | [ _ ] -> None (* single-partition templates need no co-location *)
                  | parts ->
                      (* Weight the hint by the template's share of its
                         class so predicted edges are commensurate with
                         the observed per-window edge weights instead of
                         swamping them. *)
                      let share =
                        if w.Classify.total > 0.0 then
                          Template.total_arrivals t.registry id /. w.Classify.total
                        else 0.0
                      in
                      let weight = t.w_p *. (pred -. cur) *. share in
                      if weight <= 0.0 then None else Some { parts; weight })
                sampled))
          per_class))

let last_wv t = t.last_wv
let template_count t = Template.template_count t.registry
let class_count t = t.last_classes
let w_p t = t.w_p
