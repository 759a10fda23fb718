type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }
let add_row t row = t.rows <- row :: t.rows

let cell_float ?(decimals = 1) v = Printf.sprintf "%.*f" decimals v
let cell_int v = string_of_int v

let render t =
  let rows = List.rev t.rows in
  let ncols =
    List.fold_left (fun acc r -> Stdlib.max acc (List.length r)) (List.length t.columns) rows
  in
  let pad row = row @ List.init (ncols - List.length row) (fun _ -> "") in
  let all = pad t.columns :: List.map pad rows in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)) row)
    all;
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  let render_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  (match all with
  | header :: body ->
      render_row header;
      let rule = String.concat "" (List.init ncols (fun i -> String.make widths.(i) '-' ^ "  ")) in
      Buffer.add_string buf (String.trim rule ^ "\n");
      List.iter render_row body
  | [] -> ());
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()

let by_row ~title label cols rows =
  let t = create ~title ~columns:(label :: List.map fst cols) in
  List.iter (fun (name, x) -> add_row t (name :: List.map (fun (_, f) -> f x) cols)) rows;
  print t

let by_metric ~title label cols rows =
  let t = create ~title ~columns:(label :: List.map fst rows) in
  List.iter (fun (header, f) -> add_row t (header :: List.map (fun (_, x) -> f x) rows)) cols;
  print t

let grid ~title label cols f rows =
  let t = create ~title ~columns:(label :: cols) in
  List.iter (fun (name, xs) -> add_row t (name :: List.map f xs)) rows;
  print t
