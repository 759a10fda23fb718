(** A deterministic pool of OCaml 5 domains for independent sweep
    cells.

    [map f xs] is [List.map f xs] with the cells spread over domains:
    results come back in input order, so anything rendered from them
    is the same at every domain count. Cells must not share mutable
    state; every experiment cell builds its own cluster, engine and
    generators, so a [Runner.run] call is a valid cell. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [domains] (default [Domain.recommended_domain_count ()]) caps the
    worker count, which is [min domains (List.length xs)]; the calling
    domain is one of the workers. With one worker this is [List.map]
    and no domain is spawned. Otherwise workers take the next cell
    from a shared atomic index. While they run the GC's
    [space_overhead] is lowered to 40 (if higher), and every cell ends
    with a full major collection, as does the join; this trims the
    heap, though peak memory still grows with the number of live
    cells (tuned on two cores; see docs/PERF.md). If cells
    raise, the pool stops handing out cells, waits for every worker,
    and re-raises the exception of the lowest-index failing cell with
    its backtrace, the one [List.map] would have raised. *)
