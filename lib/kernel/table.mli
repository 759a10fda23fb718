(** Plain-text table rendering for the benchmark harness.

    The harness prints each paper figure/table as an aligned textual
    table (series name per row, x-axis values per column), mimicking the
    rows the paper reports. *)

type t

val create : title:string -> columns:string list -> t
(** A table titled [title] whose header row is [columns]. *)

val add_row : t -> string list -> unit
(** Rows shorter than the header are right-padded with empty cells. *)

val render : t -> string
(** Render with column-aligned padding, title, and a rule line. *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)

val cell_float : ?decimals:int -> float -> string
(** Format a float for a cell ([decimals] defaults to 1). *)

val cell_int : int -> string

(** {1 Renderers}

    Each prints one titled table from labelled values; [label] heads
    the first column. *)

val by_row :
  title:string -> string -> (string * ('a -> string)) list -> (string * 'a) list -> unit
(** [by_row ~title label cols rows]: one row per [(name, x)], one column
    per [(header, text)]. *)

val by_metric :
  title:string -> string -> (string * ('a -> string)) list -> (string * 'a) list -> unit
(** The transpose of {!by_row}: one column per [(name, x)], one row per
    [(header, text)]. *)

val grid :
  title:string -> string -> string list -> ('a -> string) -> (string * 'a list) list -> unit
(** [grid ~title label cols f rows]: one row per [(name, xs)], the
    cells [f x] under the column headers [cols]. *)
