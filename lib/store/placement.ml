type t = {
  nodes : int;
  partitions : int;
  max_replicas : int;
  primary : int array;
  secondary : bool array array; (* partition -> node -> has secondary *)
}

(* [standby] widens every per-node array without placing anything on the
   extra slots: the initial layout is computed over the first [nodes]
   ids exactly as before, so the default ([standby = 0]) placement is
   unchanged bit for bit. *)
let create ?(standby = 0) ~nodes ~partitions ~replicas ~max_replicas () =
  assert (nodes > 0 && partitions > 0 && standby >= 0);
  assert (replicas >= 1 && replicas <= max_replicas && replicas <= nodes);
  let slots = nodes + standby in
  let primary = Array.init partitions (fun p -> p mod nodes) in
  let secondary = Array.init partitions (fun _ -> Array.make slots false) in
  for p = 0 to partitions - 1 do
    for r = 1 to replicas - 1 do
      secondary.(p).((p + r) mod nodes) <- true
    done
  done;
  { nodes = slots; partitions; max_replicas; primary; secondary }

let[@inline] nodes t = t.nodes
let partitions t = t.partitions
let max_replicas t = t.max_replicas
let[@inline] primary t p = t.primary.(p)

let secondaries t p =
  let out = ref [] in
  for n = t.nodes - 1 downto 0 do
    if t.secondary.(p).(n) then out := n :: !out
  done;
  !out

let replica_count t p = 1 + List.length (secondaries t p)
let[@inline] has_primary t ~part ~node = t.primary.(part) = node
let[@inline] has_secondary t ~part ~node = t.secondary.(part).(node)
let has_replica t ~part ~node = has_primary t ~part ~node || has_secondary t ~part ~node

let remaster t ~part ~node =
  if t.primary.(part) <> node then (
    if not t.secondary.(part).(node) then
      invalid_arg
        (Printf.sprintf "Placement.remaster: node %d holds no replica of partition %d" node part);
    let old = t.primary.(part) in
    t.secondary.(part).(node) <- false;
    t.secondary.(part).(old) <- true;
    t.primary.(part) <- node)

let add_secondary t ~part ~node =
  if not (has_replica t ~part ~node) then (
    if replica_count t part >= t.max_replicas then
      invalid_arg
        (Printf.sprintf "Placement.add_secondary: partition %d already at max replicas" part);
    t.secondary.(part).(node) <- true)

let remove_secondary t ~part ~node =
  if t.primary.(part) = node then
    invalid_arg "Placement.remove_secondary: cannot remove the primary";
  if not t.secondary.(part).(node) then
    invalid_arg "Placement.remove_secondary: no secondary on that node";
  t.secondary.(part).(node) <- false

let parts_primary_on t node =
  let out = ref [] in
  for p = t.partitions - 1 downto 0 do
    if t.primary.(p) = node then out := p :: !out
  done;
  !out

let replicas_on t node =
  let count = ref 0 in
  for p = 0 to t.partitions - 1 do
    if has_replica t ~part:p ~node then incr count
  done;
  !count

let rec count_primaries primary node acc = function
  | [] -> acc
  | p :: rest -> count_primaries primary node (if primary.(p) = node then acc + 1 else acc) rest

let count_primaries_at t parts ~node = count_primaries t.primary node 0 parts

let count_replicas_at t parts ~node =
  List.fold_left (fun acc p -> if has_replica t ~part:p ~node then acc + 1 else acc) 0 parts

let best_local_node t parts =
  let best = ref None in
  for node = t.nodes - 1 downto 0 do
    if List.for_all (fun p -> has_replica t ~part:p ~node) parts then (
      let prims = count_primaries_at t parts ~node in
      match !best with
      | Some (_, best_prims) when best_prims > prims -> ()
      | _ -> best := Some (node, prims))
  done;
  (* The loop above keeps the best seen while iterating downwards and
     prefers the later (lower-id) node on ties because `>=` would; make
     the tie-break explicit: keep lower id on equal primary counts. *)
  Option.map fst !best

(* --- Region spread (docs/GEO.md) -------------------------------------
   The placement itself stays region-unaware: callers hand in the node →
   region map. [regions_spanned] is the invariant the qcheck property
   asserts; [spread_regions] repairs the seed layout once at cluster
   creation. *)

let regions_spanned t ~region_of ~part =
  let seen = ref [] in
  let note n =
    let r = region_of n in
    if not (List.mem r !seen) then seen := r :: !seen
  in
  note t.primary.(part);
  for n = 0 to t.nodes - 1 do
    if t.secondary.(part).(n) then note n
  done;
  List.length !seen

let num_regions t ~region_of =
  let hi = ref 0 in
  for n = 0 to t.nodes - 1 do
    if region_of n > !hi then hi := region_of n
  done;
  !hi + 1

(* Move one secondary of [part] into a region currently holding no
   replica, if such a move exists: victim = the highest-id secondary in
   a region that holds ≥ 2 replicas of [part]; target = the least-loaded
   node (tie: lower id) of the first uncovered region. Returns whether a
   move happened. [eligible] excludes dead/standby slots. *)
let spread_one t ~region_of ~eligible ~part =
  let nreg = num_regions t ~region_of in
  let replicas_in_region r =
    let c = ref (if region_of t.primary.(part) = r then 1 else 0) in
    for n = 0 to t.nodes - 1 do
      if t.secondary.(part).(n) && region_of n = r then incr c
    done;
    !c
  in
  let victim = ref (-1) in
  for n = 0 to t.nodes - 1 do
    if t.secondary.(part).(n) && replicas_in_region (region_of n) >= 2 then
      victim := n
  done;
  let target = ref (-1) in
  (for r = nreg - 1 downto 0 do
     if replicas_in_region r = 0 then (
       (* least-loaded eligible node of region [r], lower id on ties *)
       let best = ref (-1) in
       for n = t.nodes - 1 downto 0 do
         if region_of n = r && eligible n && not (has_replica t ~part ~node:n)
         then
           if !best < 0 || replicas_on t n <= replicas_on t !best then best := n
       done;
       if !best >= 0 then target := !best)
   done);
  if !victim >= 0 && !target >= 0 then (
    t.secondary.(part).(!victim) <- false;
    t.secondary.(part).(!target) <- true;
    true)
  else false

let spread_regions t ~region_of ~eligible ~min_regions =
  for part = 0 to t.partitions - 1 do
    let want = min min_regions (num_regions t ~region_of) in
    let continue = ref true in
    while !continue && regions_spanned t ~region_of ~part < want do
      continue := spread_one t ~region_of ~eligible ~part
    done
  done

let copy t =
  {
    t with
    primary = Array.copy t.primary;
    secondary = Array.map Array.copy t.secondary;
  }
