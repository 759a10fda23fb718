type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Parse_error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then (pos := !pos + len; v)
    else fail "bad literal"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'; advance ()
          | '\\' -> Buffer.add_char b '\\'; advance ()
          | '/' -> Buffer.add_char b '/'; advance ()
          | 'n' -> Buffer.add_char b '\n'; advance ()
          | 't' -> Buffer.add_char b '\t'; advance ()
          | 'r' -> Buffer.add_char b '\r'; advance ()
          | 'b' -> Buffer.add_char b '\b'; advance ()
          | 'f' -> Buffer.add_char b '\012'; advance ()
          | 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | None -> fail "bad \\u escape"
              | Some code ->
                  pos := !pos + 4;
                  (* ASCII range only — all the writers ever emit. *)
                  Buffer.add_char b (if code < 0x80 then Char.chr code else '?'))
          | _ -> fail "bad escape");
          go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (advance (); Obj [])
        else (
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); fields ((k, v) :: acc)
            | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields [])
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (advance (); Arr [])
        else (
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); items (v :: acc)
            | ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items [])
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> (
        let start = !pos in
        let is_num_char c =
          (c >= '0' && c <= '9')
          || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
        in
        while !pos < n && is_num_char s.[!pos] do advance () done;
        if !pos = start then fail "unexpected character";
        match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  parse s

let field name = function
  | Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let get kind name j of_value =
  match Option.bind (field name j) of_value with
  | Some v -> v
  | None -> raise (Parse_error (Printf.sprintf "missing %s field %S" kind name))

let get_num name j = get "numeric" name j (function Num f -> Some f | _ -> None)

let get_int name j =
  get "integer" name j (function
    | Num f when Float.is_integer f -> Some (int_of_float f)
    | _ -> None)

let get_str name j = get "string" name j (function Str s -> Some s | _ -> None)
let get_bool name j = get "boolean" name j (function Bool b -> Some b | _ -> None)
let get_arr name j = get "array" name j (function Arr l -> Some l | _ -> None)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf
