let () = exit (E2e.Bench.main Sys.argv)
