module Cluster = Lion_store.Cluster
module Plan = Lion_analysis.Plan

let apply cl (plan : Plan.t) =
  (* Collapse actions per (part, node): a remaster that follows an add
     must wait for the copy to finish. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun action ->
      let part, node, is_add =
        match action with
        | Plan.Add_replica { part; node } -> (part, node, true)
        | Plan.Remaster { part; node } -> (part, node, false)
      in
      let add, remaster =
        Option.value ~default:(false, false) (Hashtbl.find_opt tbl (part, node))
      in
      Hashtbl.replace tbl (part, node)
        (if is_add then (true, remaster) else (add, true)))
    plan.Plan.actions;
  Hashtbl.iter
    (fun (part, node) (add, remaster) ->
      let remaster () = if remaster then Cluster.remaster_sync cl ~part ~node in
      if add then ignore (Cluster.install cl ~part ~node ~after:remaster) else remaster ())
    tbl
