let create cl =
  let route = Exec.route_most_primaries cl in
  Proto.make ~name:"Unified"
    ~submit:(fun txn ~on_done ->
      Exec.run cl ~route ~flavor:Exec.unified_flavor txn ~on_done)
    ()
