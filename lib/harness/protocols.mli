(** The protocol registry: every protocol the harness runs, defined once
    (docs/PROTOCOLS.md, "Protocol ids"). It lives here rather than in
    [lion_protocols] because Lion is built in [lion_core], which
    depends on [lion_protocols]. *)

type entry = {
  id : string;  (** CLI name: [2pc], [lion-batch], [epoch], ... *)
  label : string;  (** what experiment tables print: [2PC], [EpochOCC], ... *)
  batch : bool;  (** the [~batch] flag of {!Runner.run} *)
  make :
    ?config:Lion_core.Planner.config -> Lion_store.Cluster.t -> Lion_protocols.Proto.t;
      (** Lion entries hand [config] to their planner; others ignore it. *)
}

val all : entry list
(** The eleven paper protocols in [lion list]'s order, then [epoch]. *)

val ids : string list
val find : string -> entry option

val get : string -> entry
(** [find] for ids named in code; raises [Invalid_argument]. *)

val lineup :
  ?config:Lion_core.Planner.config ->
  string list ->
  (string * bool * (Lion_store.Cluster.t -> Lion_protocols.Proto.t)) list
(** [(label, batch, make ?config)] per id, as experiment tables use them. *)

val unknown : ?also:string list -> string -> string
(** The message for an unknown id: lists [ids], then a tool's [also]. *)
