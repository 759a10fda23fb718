module Timeseries = Lion_kernel.Timeseries

type id = int

type entry = {
  parts : int list;
  series : Timeseries.t;
  mutable total : float;
}

(* The generic tables' hash and bucket order, with monomorphic
   equalities in place of [compare]: iteration, and so
   [evict_coldest]'s tie-break, visits entries in the same order. *)
module Parts_tbl = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash = Hashtbl.hash
end)

module Id_tbl = Hashtbl.Make (struct
  type t = id

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = {
  capacity : int;
  interval : float;
  by_parts : id Parts_tbl.t;
  entries : entry Id_tbl.t;
  mutable next_id : id;
}

let create ?(capacity = 4096) ~interval () =
  {
    capacity;
    interval;
    by_parts = Parts_tbl.create 256;
    entries = Id_tbl.create 256;
    next_id = 0;
  }

let evict_coldest t =
  let coldest = ref None in
  Id_tbl.iter
    (fun id e ->
      match !coldest with
      | Some (_, total) when total <= e.total -> ()
      | _ -> coldest := Some (id, e.total))
    t.entries;
  match !coldest with
  | None -> ()
  | Some (id, _) ->
      let e = Id_tbl.find t.entries id in
      Parts_tbl.remove t.by_parts e.parts;
      Id_tbl.remove t.entries id

let rec strictly_ascending = function
  | (a : int) :: (b :: _ as rest) -> a < b && strictly_ascending rest
  | [ _ ] | [] -> true

let observe t ~time ~parts =
  (* [Txn.parts] is already sorted and duplicate-free. *)
  let parts = if strictly_ascending parts then parts else List.sort_uniq compare parts in
  let id =
    match Parts_tbl.find_opt t.by_parts parts with
    | Some id -> id
    | None ->
        if Id_tbl.length t.entries >= t.capacity then evict_coldest t;
        let id = t.next_id in
        t.next_id <- id + 1;
        Parts_tbl.replace t.by_parts parts id;
        Id_tbl.replace t.entries id
          { parts; series = Timeseries.create ~interval:t.interval; total = 0.0 };
        id
  in
  let e = Id_tbl.find t.entries id in
  Timeseries.incr e.series ~time;
  e.total <- e.total +. 1.0;
  id

let parts_of t id = (Id_tbl.find t.entries id).parts
let total_arrivals t id = (Id_tbl.find t.entries id).total

let arrival_rate ?upto t id ~window =
  let series = (Id_tbl.find t.entries id).series in
  match upto with
  | None -> Timeseries.last_n series window
  | Some upto -> Timeseries.range series ~lo:(upto - window) ~hi:(upto - 1)

let template_count t = Id_tbl.length t.entries

let ids t =
  Id_tbl.fold (fun id e acc -> (id, e.total) :: acc) t.entries []
  |> List.sort (fun (ida, ta) (idb, tb) ->
         let c = compare tb ta in
         if c <> 0 then c else compare ida idb)
  |> List.map fst

let bucket_of_time t time = int_of_float (Float.floor (time /. t.interval))
