type outcome = Committed | Aborted | Indeterminate

let outcome_name = function
  | Committed -> "committed"
  | Aborted -> "aborted"
  | Indeterminate -> "indeterminate"

type event = {
  txn_id : int;
  attempt : int;
  reads : (Kvstore.key * int) list;
  writes : (Kvstore.key * int) list;
  outcome : outcome;
  ts : float;
  seq : int;
}

type t = {
  mutable rev_events : event list;
  mutable n : int;
  mutable next_seq : int;
  (* Shadow version table for analytic (batch) engines, which never
     touch the shared Kvstore: committed write sets of an epoch are
     applied here, in commit order, to synthesise observed/installed
     versions. Exec-style protocols ignore it and record straight from
     the real store. *)
  shadow : Kvstore.t;
}

let create () =
  { rev_events = []; n = 0; next_seq = 0; shadow = Kvstore.create () }

let record t ~txn_id ~attempt ~reads ~writes ~outcome ~ts =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.rev_events <- { txn_id; attempt; reads; writes; outcome; ts; seq } :: t.rev_events;
  t.n <- t.n + 1

let record_session t ~store session ~txn_id ~attempt ~outcome ~ts =
  let writes =
    match outcome with
    | Committed ->
        List.sort_uniq Kvstore.key_compare (Kvstore.write_set session)
        |> List.map (fun key -> (key, Kvstore.version store key))
    | Aborted | Indeterminate -> []
  in
  record t ~txn_id ~attempt ~reads:(Kvstore.observed_reads session) ~writes ~outcome ~ts

let size t = t.n
let events t = List.rev t.rev_events
let shadow t = t.shadow

let event ~txn_id ?(attempt = 1) ?(reads = []) ?(writes = []) ~outcome
    ?(ts = 0.0) ~seq () =
  { txn_id; attempt; reads; writes; outcome; ts; seq }

let pp_event fmt e =
  let pp_pair tag fmt (k, v) = Format.fprintf fmt "%s(%a@@%d)" tag Kvstore.pp_key k v in
  Format.fprintf fmt "T%d/%d %s seq=%d %a %a" e.txn_id e.attempt
    (outcome_name e.outcome) e.seq
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ",")
       (pp_pair "r"))
    e.reads
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ",")
       (pp_pair "w"))
    e.writes
