(** A small JSON reader and the string escape every JSON writer in the
    tree uses: the perf report, the fuzz corpus and the Chrome trace
    exporter. Objects, arrays, strings, numbers and the literals
    [true], [false] and [null]; no dependency on a JSON package. *)

type t =
  | Obj of (string * t) list  (** fields in file order *)
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Parse_error of string

val parse : string -> t
(** The one value in the string, surrounded by optional whitespace.
    Raises [Parse_error] (with the byte offset) on anything else,
    including a misspelt literal or a malformed number. String escapes
    [\uXXXX] outside ASCII read as ['?']. *)

val read_file : string -> t
(** [parse] of a whole file. Raises [Sys_error] if it cannot be read. *)

val field : string -> t -> t option
(** The named field of an object; [None] for a missing field or a
    non-object. *)

val get_num : string -> t -> float
val get_int : string -> t -> int
val get_str : string -> t -> string
val get_bool : string -> t -> bool

val get_arr : string -> t -> t list
(** The [get_*] accessors read a field of the given kind, raising
    [Parse_error] when it is missing or of another kind. [get_int]
    accepts only numbers with no fractional part. *)

val escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes):
    quote, backslash, newline and tab get their short escapes, other
    control characters [\u00XX]. *)
