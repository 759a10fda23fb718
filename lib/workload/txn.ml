module Kvstore = Lion_store.Kvstore

type op = int

let check k =
  if (k : Kvstore.key :> int) < 0 then invalid_arg "Txn: unpackable key"

let read k =
  check k;
  (k :> int)

let write k =
  check k;
  lnot (k :> int)

let[@inline] is_write op = op < 0

(* [read] and [write] refuse unpackable keys and every other key is
   non-negative, so a read and a write never share a representation. *)
let[@inline] key_of op = Kvstore.key_of_int (if op < 0 then lnot op else op)

type t = { id : int; ops : op array; parts : int list }

(* An ascending list of distinct partitions; a transaction touches few
   partitions, so this beats sorting. Most operations hit a partition
   already listed, and the membership test finds it without copying a
   cell; [insert_part] is only called for a partition not yet in the
   list. *)
let rec mem_part (p : int) = function [] -> false | q :: rest -> p = q || (q < p && mem_part p rest)

let rec insert_part (p : int) = function
  | [] -> [ p ]
  | q :: rest as l -> if p < q then p :: l else q :: insert_part p rest

let parts_of_ops ops =
  let parts = ref [] in
  for i = 0 to Array.length ops - 1 do
    let p = Kvstore.part (key_of ops.(i)) in
    if not (mem_part p !parts) then parts := insert_part p !parts
  done;
  !parts

let make ~id ops = { id; ops; parts = parts_of_ops ops }
let is_cross_partition t = match t.parts with [] | [ _ ] -> false | _ -> true

let keys_where pred t =
  Array.fold_right (fun op acc -> if pred op then key_of op :: acc else acc) t.ops []

let read_keys = keys_where (fun op -> not (is_write op))
let write_keys = keys_where is_write
let write_count t = Array.fold_left (fun n op -> if is_write op then n + 1 else n) 0 t.ops

let pp fmt t =
  Format.fprintf fmt "T%d{%a}" t.id
    (Format.pp_print_seq ~pp_sep:(fun f () -> Format.pp_print_string f ",")
       (fun f op ->
         let tag = if is_write op then "W" else "R" in
         Format.fprintf f "%s(%a)" tag Kvstore.pp_key (key_of op)))
    (Array.to_seq t.ops)
