let create cl =
  let route = Exec.route_most_primaries cl in
  Proto.make ~name:"2PC"
    ~submit:(fun txn ~on_done ->
      Exec.run cl ~route ~flavor:Exec.plain_2pc txn ~on_done)
    ()
