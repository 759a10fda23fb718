(** Critical-path extraction over a finished trace.

    The critical path is the longest causal chain through the span
    tree: walking backwards from the root's end, each instant of the
    transaction's lifetime is attributed to the deepest span that was
    actually gating progress at that instant — the child whose
    completion the parent was waiting on, recursively. Concurrent
    children (e.g. a 2PC prepare fan-out) resolve to the one that
    finished last before the parent could proceed; time no child
    accounts for (setup, retry backoff, queueing) falls to the parent
    span itself.

    The produced segments exactly partition the root interval, so the
    per-phase totals sum to the transaction's recorded latency (up to
    float-addition rounding) — the invariant the top-K slow-transaction
    report relies on. *)

type segment = {
  span : Trace.span;  (** the span blamed for this slice of time *)
  from_ts : float;
  until_ts : float;
}

val segments : Trace.trace -> segment list
(** Critical-path segments in chronological order; they partition
    [[root.start_ts, root.end_ts]]. Open spans (never finished — e.g.
    async replication still in flight) and spans outliving the window
    under inspection are never blamed. *)

val phase_totals : Trace.trace -> (Trace.phase * float) list
(** Total critical-path time per phase, descending by time.
    Sums to the trace's duration within float tolerance. *)

val path_spans : Trace.trace -> Trace.span list
(** The distinct spans on the critical path, chronological by first
    appearance (consecutive duplicate segments merged). *)
