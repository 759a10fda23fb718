(** Causal transaction tracing for the discrete-event substrate.

    A trace follows one transaction through every causally-linked step
    of its life — execution groups, remaster transfers, 2PC rounds,
    individual network messages, retries and group-commit waits — as a
    tree of timed {!span}s. The instrumented layers ([Network.send],
    [Transport.call], the protocol engines) each open a child span under
    the context they were handed and close it when their step
    completes, so a finished trace is a faithful causal record of where
    the transaction's latency went.

    Design constraints (and how they are met):
    - {b Zero cost when disabled.} Instrumented code holds a
      [ctx option]; with tracing off every context is [None] and every
      combinator is a constant-time no-op that allocates nothing. No
      extra simulation events are ever scheduled — spans only read the
      clock — so a disabled tracer leaves experiment output bit-for-bit
      unchanged, and an enabled one changes no simulation outcome.
    - {b Determinism.} Span and trace ids are sequential, timestamps
      come from the deterministic engine clock, and retention breaks
      ties on trace id: the same seed yields a byte-identical exported
      trace file.
    - {b Bounded memory.} Sampling policies bound how many transactions
      are traced or retained; a per-trace span cap stops pathological
      retry storms from accumulating unbounded spans. *)

(** The latency taxonomy, one phase per span; [Metrics] re-exports it. *)
type phase =
  | Execution  (** read/write processing, incl. setup and remote reads *)
  | Prepare  (** 2PC prepare round *)
  | Commit  (** 2PC commit round, or a batch epoch's commit barrier *)
  | Remaster  (** waiting on leader transfers or migrations *)
  | Scheduling  (** worker queue, retry backoff, epoch parking, sequencer *)
  | Replication  (** group-commit wait, epoch replication round, log ship *)

val phase_name : phase -> string
val all_phases : phase list

(** One timed step of a transaction, linked to its causal parent.
    Timestamps are engine time (µs). [end_ts] is [neg_infinity] while
    the span is still open. *)
type span = {
  id : int;  (** per-trace, in creation order; 0 is the root *)
  parent : int;  (** parent span id, -1 for the root *)
  name : string;
  phase : phase;
  node : int;  (** node the step ran on, -1 for client/cluster-wide *)
  part : int;  (** partition involved, -1 when not partition-specific *)
  start_ts : float;
  mutable end_ts : float;
  mutable notes : (float * string) list;
      (** timestamped instant annotations (retries, timeouts, drops,
          aborts), newest first *)
}

(** A completed (or in-flight) transaction trace: the span tree plus
    outcome metadata. *)
type trace = {
  trace_id : int;  (** sequential per tracer *)
  txn_id : int;
  mutable spans : span list;  (** newest first; reverse for id order *)
  mutable n_spans : int;
  mutable aborts : int;  (** aborted attempts / epoch re-queues *)
  mutable ok : bool;  (** final verdict, set at [finish_txn] *)
  mutable duration : float;  (** root latency, µs; set at [finish_txn] *)
}

(** Which transactions are traced, and which finished traces are kept:
    - [All]: trace and keep everything (up to 10 000);
    - [Every n]: head sampling — trace every [n]th submitted
      transaction (up to 10 000 kept);
    - [Slowest k]: trace everything, retain only the [k] slowest
      completed transactions (reservoir of size [k]);
    - [On_abort]: trace everything, retain only transactions that
      suffered at least one abort/re-queue (up to 10 000). *)
type policy = All | Every of int | Slowest of int | On_abort

type t
(** A tracer: sampling state plus the retained traces of one run. *)

type ctx
(** A trace context: one open span within one trace. Instrumented code
    passes [ctx option] down the causal chain; [None] means "not
    traced" and makes every operation free. *)

val create : ?policy:policy -> ?span_cap:int -> unit -> t
(** Fresh tracer. [policy] defaults to [Slowest 10]; [span_cap] (default 4096) bounds spans per trace — beyond it, child
    creation returns [None] (deeper steps go untraced). *)

val policy : t -> policy

val started : t -> int
(** Transactions offered to [start_txn]. *)

val sampled : t -> int
(** Transactions actually traced. *)

val finished : t -> int
(** Traced transactions that completed. *)

val retained : t -> trace list
(** Kept traces, ascending trace id (deterministic). *)

val instant : ?node:int -> ts:float -> t -> string -> unit
(** Record a cluster-level instant event — a fault injection, an
    election, a partition heal — independent of any transaction.
    [node] is the node concerned, [-1] (the default) for cluster-wide
    events. Exported as Perfetto instant markers. *)

val instants : t -> (float * int * string) list
(** All recorded instants as [(ts, node, label)], sorted by timestamp
    (stable: same-time events keep recording order). *)

val start_txn : t -> ts:float -> txn_id:int -> ctx option
(** Sampling decision for one transaction. [Some ctx] opens the root
    span (name "txn", phase [Scheduling]); [None] means skip. *)

val child :
  ?node:int ->
  ?part:int ->
  ?phase:phase ->
  name:string ->
  ts:float ->
  ctx option ->
  ctx option
(** Open a child span under the context's span. [node]/[part]/[phase]
    default to the parent's. Returns [None] on [None] input or when the
    trace hit its span cap. *)

val finish : ts:float -> ctx option -> unit
(** Close the context's span. No-op on [None] or an already-closed
    span. *)

val note : ts:float -> string -> ctx option -> unit
(** Attach a timestamped annotation (e.g. "retry", "timeout", "drop")
    to the context's span. *)

val note_abort : ts:float -> ctx option -> unit
(** Record an aborted attempt: bumps the trace's abort counter (the
    [On_abort] retention signal) and annotates the span. *)

val finish_txn : ts:float -> ok:bool -> ctx option -> unit
(** Close the trace: ends the root span (the context must be the root),
    stamps duration and verdict, and applies the retention policy. *)

val is_open : span -> bool
val span_duration : span -> float
(** [end_ts - start_ts], 0 for open spans. *)

val spans_in_order : trace -> span array
(** The trace's spans indexed by span id (creation order). *)
