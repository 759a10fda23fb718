type decision = Hold | Scale_up | Scale_down

type t = {
  fc : Forecaster.t;
  per_node_rate : float;
  min_members : int;
  max_members : int;
  mutable history : float list;  (* newest first *)
  mutable last_forecast : float;
  mutable streak_dir : int;  (* sign of the pending desire: -1 / 0 / +1 *)
  mutable streak_len : int;
  mutable ups : int;
  mutable downs : int;
}

(* Control ticks ahead to forecast. *)
let horizon = 3

(* Consecutive same-direction desires needed before a scale step. *)
let hysteresis = 3

(* Over-provision factor on the forecast rate. *)
let headroom = 1.2

(* Observations kept for the forecaster. *)
let max_history = 64

let create ~forecaster ~per_node_rate ~min_members ~max_members =
  {
    fc = forecaster;
    per_node_rate = Stdlib.max 1e-6 per_node_rate;
    min_members;
    max_members;
    history = [];
    last_forecast = 0.0;
    streak_dir = 0;
    streak_len = 0;
    ups = 0;
    downs = 0;
  }

let observe t ~rate =
  t.history <- rate :: t.history;
  (* Bound the window: the forecaster trains on the recent past only,
     and an unbounded list would make each tick costlier than the
     last. *)
  if List.length t.history > max_history then
    t.history <- List.filteri (fun i _ -> i < max_history) t.history

let clamp t v = Stdlib.max t.min_members (Stdlib.min t.max_members v)

let desired t ~members =
  if List.length t.history < 3 then members
  else begin
    let series = Array.of_list (List.rev t.history) in
    let f = Forecaster.forecast t.fc ~key:0 ~series ~horizon in
    t.last_forecast <- f;
    clamp t (int_of_float (Float.ceil (f *. headroom /. t.per_node_rate)))
  end

let forecast_rate t = t.last_forecast

let decide t ~members =
  let want = desired t ~members in
  let dir = compare want members in
  if dir = 0 then begin
    t.streak_dir <- 0;
    t.streak_len <- 0;
    Hold
  end
  else begin
    if dir = t.streak_dir then t.streak_len <- t.streak_len + 1
    else begin
      t.streak_dir <- dir;
      t.streak_len <- 1
    end;
    if t.streak_len < hysteresis then Hold
    else begin
      (* Emit one step and restart the streak: the next step needs the
         desire to persist for another full hysteresis window, so a
         large ramp is absorbed as a paced sequence of single-node
         changes rather than a burst of them. *)
      t.streak_dir <- 0;
      t.streak_len <- 0;
      if dir > 0 then begin
        t.ups <- t.ups + 1;
        Scale_up
      end
      else begin
        t.downs <- t.downs + 1;
        Scale_down
      end
    end
  end

let scale_ups t = t.ups
let scale_downs t = t.downs
