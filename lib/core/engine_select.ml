let solve ?objective ?method_ ?jobs (s : Types.scenario) =
  let lp =
    try Some (Optimization_engine.solve ?objective ?method_ s)
    with Optimization_engine.Infeasible _ -> None
  in
  let greedy =
    try
      let p = Heuristic_engine.solve ?objective ?jobs s in
      (* Trust but verify: the greedy is only kept when the validator
         passes (the optimization engine's placement is already
         validated by construction and by tests). *)
      match Optimization_engine.check_distribution s p with
      | Ok () -> Some p
      | Error _ -> None
    with Optimization_engine.Infeasible _ -> None
  in
  match (lp, greedy) with
  | None, None ->
      raise
        (Optimization_engine.Infeasible
           "both the optimization engine and the greedy heuristic failed")
  | Some p, None | None, Some p -> p
  | Some a, Some b ->
      (* The race ran both engines, so its time is both solves'. *)
      let solve_seconds =
        a.Optimization_engine.solve_seconds
        +. b.Optimization_engine.solve_seconds
      in
      if
        b.Optimization_engine.objective_value
        < a.Optimization_engine.objective_value -. 1e-9
      then
        (* Keep the relaxation bound for honest reporting. *)
        {
          b with
          Optimization_engine.lp_objective = a.Optimization_engine.lp_objective;
          solve_seconds;
        }
      else { a with Optimization_engine.solve_seconds }
