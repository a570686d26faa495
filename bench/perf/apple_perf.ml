let () = exit (Runner.main Sys.argv)
