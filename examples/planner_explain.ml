(* Walk the paper's running example (Figs. 3-4) through the real
   pipeline: seven transactions are analysed into a heat graph, the
   graph is clustered into clumps, and the replica rearrangement
   algorithm (Algorithm 1) dispatches and fine-tunes them across three
   nodes, printing every intermediate artefact.

   Run with: dune exec examples/planner_explain.exe *)

module Heatgraph = Lion_analysis.Heatgraph
module Clump = Lion_analysis.Clump
module Costmodel = Lion_analysis.Costmodel
module Rearrange = Lion_analysis.Rearrange
module Plan = Lion_analysis.Plan
module Placement = Lion_store.Placement
module Table = Lion_kernel.Table

let () =
  (* Figure 3a: the transaction batch. Partitions are 0-based here
     (paper's P1..P5 are partitions 0..4). *)
  let batch =
    [
      ("T1", [ 0; 1 ]);
      ("T2", [ 2 ]);
      ("T3", [ 3 ]);
      ("T4", [ 0; 1 ]);
      ("T5", [ 4 ]);
      ("T6", [ 3 ]);
      ("T7", [ 4 ]);
    ]
  in
  let t = Table.create ~title:"Input batch (Fig 3a)" ~columns:[ "txn"; "partitions" ] in
  List.iter
    (fun (name, parts) ->
      Table.add_row t
        [ name; String.concat "," (List.map (fun p -> "P" ^ string_of_int (p + 1)) parts) ])
    batch;
  Table.print t;

  (* Graph construction. *)
  let graph = Heatgraph.create ~partitions:5 in
  List.iter (fun (_, parts) -> Heatgraph.add_txn graph ~parts) batch;
  let gt =
    Table.create ~title:"Heat graph G(V,E) (Fig 3a, right)"
      ~columns:[ "vertex"; "w(v)"; "edges" ]
  in
  for p = 0 to 4 do
    let edges =
      Heatgraph.neighbors graph p
      |> List.map (fun q ->
             Printf.sprintf "P%d(w=%.0f)" (q + 1) (Heatgraph.edge_weight graph p q))
      |> String.concat " "
    in
    Table.add_row gt
      [ "P" ^ string_of_int (p + 1); Table.cell_float ~decimals:0 (Heatgraph.vertex_weight graph p); edges ]
  done;
  Table.print gt;

  (* A 3-node cluster; partitions round-robin with 2 replicas, matching
     the paper's sketch closely enough to exercise every cost case. *)
  let placement = Placement.create ~nodes:3 ~partitions:5 ~replicas:2 ~max_replicas:3 () in
  let pt =
    Table.create ~title:"Original replica layout (Fig 4b analogue)"
      ~columns:[ "partition"; "primary"; "secondaries" ]
  in
  for p = 0 to 4 do
    Table.add_row pt
      [
        "P" ^ string_of_int (p + 1);
        "N" ^ string_of_int (Placement.primary placement p + 1);
        String.concat ","
          (List.map (fun n -> "N" ^ string_of_int (n + 1)) (Placement.secondaries placement p));
      ]
  done;
  Table.print pt;

  (* Clump generation (Fig 3b). *)
  let clumps = Clump.generate graph ~placement ~alpha:0.5 ~cross_boost:4.0 in
  let ct = Table.create ~title:"Clumps (Fig 3b)" ~columns:[ "clump"; "partitions"; "weight" ] in
  List.iteri
    (fun i (c : Clump.t) ->
      Table.add_row ct
        [
          "C" ^ string_of_int (i + 1);
          String.concat "," (List.map (fun p -> "P" ^ string_of_int (p + 1)) c.Clump.pids);
          Table.cell_float ~decimals:0 c.Clump.w;
        ])
    clumps;
  Table.print ct;

  (* Cost evaluation for the first clump across every node (Eq. 3). *)
  let cost = Costmodel.make ~freq:(fun _ -> 0.0) () in
  (match clumps with
  | first :: _ ->
      let et =
        Table.create
          ~title:"Cost model f_o(n, c) for the first clump (Eq. 3: w_r=1, w_m=10)"
          ~columns:[ "node"; "cost" ]
      in
      for n = 0 to 2 do
        Table.add_row et
          [
            "N" ^ string_of_int (n + 1);
            Table.cell_float ~decimals:1
              (Costmodel.clump_cost cost placement ~parts:first.Clump.pids ~node:n);
          ]
      done;
      Table.print et
  | [] -> ());

  (* Algorithm 1: dispatch + load fine-tuning. *)
  let result = Rearrange.rearrange cost placement clumps ~epsilon:0.25 () in
  let rt =
    Table.create ~title:"Rearrangement result (Fig 4c-d)"
      ~columns:[ "clump"; "partitions"; "destination" ]
  in
  List.iteri
    (fun i ((c : Clump.t), node) ->
      Table.add_row rt
        [
          "C" ^ string_of_int (i + 1);
          String.concat "," (List.map (fun p -> "P" ^ string_of_int (p + 1)) c.Clump.pids);
          "N" ^ string_of_int (node + 1);
        ])
    result.Rearrange.assignments;
  Table.print rt;
  Printf.printf "balance factors: [%s], fine-tune moves: %d, balanced: %b\n\n"
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%.0f") result.Rearrange.balance)))
    result.Rearrange.fine_tune_moves result.Rearrange.balanced;

  (* The reconfiguration plan the adaptor would apply (RP of §IV-B). *)
  let plan = Plan.of_assignments placement result.Rearrange.assignments ~eager_remaster:true in
  print_endline "Reconfiguration plan (RP, 0-based ids as routed to the adaptor):";
  if Plan.is_empty plan then print_endline "  (empty: every clump already placed)"
  else
    List.iter
      (fun action -> Format.printf "  %a@." Plan.pp_action action)
      plan.Plan.actions
