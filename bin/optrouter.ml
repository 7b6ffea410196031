(* OptRouter command-line interface.

   Subcommands mirror the paper's flow: [gen] harvests difficult clips
   from a synthetic design, [route] solves clips optimally under a rule
   configuration, [sweep] reproduces the Δcost evaluation, [pincost]
   ranks clips, [show] renders them, and [cells] prints the per-technology
   pin shapes of Figure 9. *)

module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Clip = Optrouter_grid.Clip
module Graph = Optrouter_grid.Graph
module Cells = Optrouter_cells.Cells
module Design = Optrouter_design.Design
module Extract = Optrouter_clips.Extract
module Pin_cost = Optrouter_clips.Pin_cost
module Clipfile = Optrouter_clipfile.Clipfile
module Formulate = Optrouter_core.Formulate
module Optrouter_drv = Optrouter_core.Optrouter
module Route = Optrouter_grid.Route
module Maze = Optrouter_maze.Maze
module Sweep = Optrouter_eval.Sweep
module Global = Optrouter_global.Global
module Pool = Optrouter_exec.Pool
module Experiments = Optrouter_eval.Experiments
module Report = Optrouter_report.Report
module Milp = Optrouter_ilp.Milp
module Simplex = Optrouter_ilp.Simplex
module Lp_file = Optrouter_ilp.Lp_file
module Lp_audit = Optrouter_analysis.Lp_audit
module Source_lint = Optrouter_analysis.Source_lint
module Par_lint = Optrouter_analysis.Par_lint
module Serve = Optrouter_serve.Serve

open Cmdliner

(* The diagnostics level of every subcommand: [-q] takes over
   [--verbosity] (and its environment default OPTROUTER_LOG), which takes
   over the [-v] count; with none of them, warnings and errors render. *)
let log_term =
  let level_conv =
    Arg.conv
      ( (fun s ->
          Result.map_error (fun m -> `Msg m) (Report.Log.level_of_string s)),
        fun ppf l -> Format.pp_print_string ppf (Report.Log.level_to_string l)
      )
  in
  let verbose =
    Arg.(
      value & flag_all
      & info [ "v"; "verbose" ]
          ~doc:"Render more diagnostics: once for info, twice for debug.")
  in
  let verbosity =
    Arg.(
      value
      & opt (some level_conv) None
      & info [ "verbosity" ] ~docv:"LEVEL"
          ~env:(Cmd.Env.info "OPTROUTER_LOG")
          ~doc:
            "Diagnostics level: $(b,quiet), $(b,error), $(b,warning) (or \
             $(b,warn)), $(b,info) or $(b,debug). Takes over $(b,-v).")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ]
          ~doc:"Render no diagnostics. Takes over $(b,-v) and $(b,--verbosity).")
  in
  let set quiet verbosity verbose =
    Report.Log.set_level
      (if quiet then None
       else
         match (verbosity, verbose) with
         | Some level, _ -> level
         | None, [] -> Some Report.Log.Warn
         | None, [ _ ] -> Some Report.Log.Info
         | None, _ -> Some Report.Log.Debug)
  in
  Term.(const set $ quiet $ verbosity $ verbose)

let tech_conv =
  let parse s =
    match Tech.by_name s with
    | t -> Ok t
    | exception Not_found ->
      Error (`Msg (Printf.sprintf "unknown technology %S (try N28-12T, N28-8T, N7-9T)" s))
  in
  Arg.conv (parse, fun ppf t -> Format.pp_print_string ppf t.Tech.name)

let tech_arg =
  Arg.(
    value
    & opt tech_conv Tech.n28_12t
    & info [ "tech" ] ~docv:"NAME" ~doc:"Technology preset (N28-12T, N28-8T, N7-9T).")

let rule_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n -> ( match Rules.rule n with r -> Ok r | exception Invalid_argument m -> Error (`Msg m))
    | None -> Error (`Msg "rule must be a number 1..14")
  in
  Arg.conv (parse, fun ppf (r : Rules.t) -> Format.pp_print_string ppf r.Rules.name)

let rule_arg =
  Arg.(
    value
    & opt rule_conv (Rules.rule 1)
    & info [ "rule" ] ~docv:"N"
        ~doc:
          "BEOL rule configuration RULEn (1..11, Table 3; 12..14 add the \
           DSA via-coloring family).")

let objective_conv =
  let parse s =
    match Rules.objective_of_name (String.lowercase_ascii s) with
    | Ok o -> Ok o
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    (parse, fun ppf o -> Format.pp_print_string ppf (Rules.objective_name o))

let objective_arg =
  Arg.(
    value
    & opt objective_conv Rules.Wirelength
    & info [ "objective" ] ~docv:"OBJ"
        ~env:(Cmd.Env.info "OPTROUTER_OBJECTIVE")
        ~doc:
          "ILP objective: $(b,wirelength) (the paper's combined cost, the \
           default), $(b,via-count) (count via instances alone) or \
           $(b,via-weighted:W) (re-weight the via edges by W). Under sweep \
           the baseline and every rule solve share the objective and the \
           dcost column is measured in it.")

let time_limit_arg =
  Arg.(
    value
    & opt float 30.0
    & info [ "time-limit" ] ~docv:"SECONDS"
        ~doc:"Wall-clock time limit per ILP solve.")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~env:(Cmd.Env.info "OPTROUTER_JOBS")
        ~doc:
          "Fan independent ILP solves over $(docv) domains. Results are \
           identical to a serial run.")

let solve_mode_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "exact" -> Ok Optrouter_drv.Exact
    | "lagrangian" -> Ok Optrouter_drv.Lagrangian
    | other ->
      Error
        (`Msg
          (Printf.sprintf "unknown solve mode %S (exact or lagrangian)" other))
  in
  Arg.conv
    ( parse,
      fun ppf m ->
        Format.pp_print_string ppf
          (match m with
          | Optrouter_drv.Exact -> "exact"
          | Optrouter_drv.Lagrangian -> "lagrangian") )

let solve_mode_arg =
  Arg.(
    value
    & opt solve_mode_conv Optrouter_drv.Exact
    & info [ "solve-mode" ] ~docv:"MODE"
        ~env:(Cmd.Env.info "OPTROUTER_SOLVE_MODE")
        ~doc:
          "Solve engine: $(b,exact) (build the full ILP and prove the \
           optimum, the default) or $(b,lagrangian) (sub-gradient \
           decomposition: per-net subproblems priced in parallel, a valid \
           dual bound, and a DRC-certified near-optimal routing with a \
           reported optimality gap — for clips beyond the exact solver's \
           reach).")

let solver_jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "solver-jobs" ] ~docv:"N"
        ~env:(Cmd.Env.info "OPTROUTER_SOLVER_JOBS")
        ~doc:
          "Run each branch-and-bound search on $(docv) worker domains. \
           Proved optima are identical to a serial solve; only node counts \
           and times change. Under sweep $(b,-j), solves only widen while \
           pool domains are idle (two-level scheduling).")

let clips_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"CLIPS" ~doc:"Clip file (see the clipfile format in the docs).")

let load_clips path =
  match Clipfile.read_file path with
  | Ok clips -> clips
  | Error msg ->
    Printf.eprintf "error: %s: %s\n" path msg;
    exit 1

let config_of ?(reuse = true) ?(audit = false) ?(solver_jobs = 1)
    ?(solve_mode = Optrouter_drv.Exact) ~time_limit () =
  let milp =
    Milp.make_params ~max_nodes:200_000 ~time_limit_s:time_limit ~solver_jobs ()
  in
  if audit then
    Optrouter_drv.make_config ~milp ~solve_mode ~seed_reuse:reuse
      ~audit:(Lp_audit.hook ()) ()
  else Optrouter_drv.make_config ~milp ~solve_mode ~seed_reuse:reuse ()

let audit_flag =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Run the model auditor on every formulation before solving and \
           abort on audit errors. Fast-path solves build no formulation and \
           are not audited.")

let no_reuse_arg =
  Arg.(
    value & flag
    & info [ "no-reuse" ]
        ~doc:
          "Disable the baseline-reuse fast path: re-solve every (clip, \
           rule) ILP from scratch instead of re-checking / re-encoding the \
           RULE1 baseline routing. Entries are identical either way; only \
           solver effort changes.")

(* ---- route ---- *)

let do_route tech rules objective time_limit solver_jobs solve_mode audit
    lp_out route_out path () =
  let clips = load_clips path in
  let rules = Rules.with_objective objective rules in
  let config = config_of ~audit ~solver_jobs ~solve_mode ~time_limit () in
  List.iteri
    (fun i clip ->
      (match lp_out with
      | Some base ->
        let g = Graph.build ~tech ~rules clip in
        let form = Formulate.build ~rules g in
        let file = Printf.sprintf "%s.%d.lp" base i in
        Lp_file.write_file file (Formulate.lp form);
        Printf.printf "wrote %s\n" file
      | None -> ());
      let result = Optrouter_drv.route ~config ~tech ~rules clip in
      (match (route_out, result.Optrouter_drv.verdict) with
      | ( Some base,
          ( Optrouter_drv.Routed sol
          | Optrouter_drv.Limit (Some sol)
          | Optrouter_drv.Near_optimal sol ) ) ->
        let g = Graph.build ~tech ~rules clip in
        let file = Printf.sprintf "%s.%d.route" base i in
        Optrouter_clipfile.Routefile.write_file file g sol;
        Printf.printf "wrote %s\n" file
      | Some _, (Optrouter_drv.Unroutable | Optrouter_drv.Limit None) | None, _
        -> ());
      let stats = result.Optrouter_drv.stats in
      match result.Optrouter_drv.verdict with
      | Optrouter_drv.Routed sol ->
        Printf.printf
          "%s under %s: cost=%d wirelength=%d vias=%d (vars=%d rows=%d nodes=%d %.2fs)\n"
          clip.Clip.c_name rules.Rules.name sol.Route.metrics.cost
          sol.Route.metrics.wirelength sol.Route.metrics.vias
          stats.Optrouter_drv.sizes.Formulate.vars
          stats.Optrouter_drv.sizes.Formulate.rows stats.Optrouter_drv.nodes
          stats.Optrouter_drv.elapsed_s
      | Optrouter_drv.Unroutable ->
        Printf.printf "%s under %s: UNROUTABLE (%.2fs)\n" clip.Clip.c_name
          rules.Rules.name stats.Optrouter_drv.elapsed_s
      | Optrouter_drv.Limit _ ->
        Printf.printf "%s under %s: LIMIT after %.2fs (%d nodes)\n"
          clip.Clip.c_name rules.Rules.name stats.Optrouter_drv.elapsed_s
          stats.Optrouter_drv.nodes
      | Optrouter_drv.Near_optimal sol ->
        let gap_txt, dual_txt =
          match stats.Optrouter_drv.lagrangian with
          | Some ls ->
            ( (match ls.Optrouter_drv.lag_gap with
              | Some gp -> Printf.sprintf " gap<=%.2f%%" (100.0 *. gp)
              | None -> ""),
              Printf.sprintf " dual>=%.0f" ls.Optrouter_drv.dual_bound )
          | None -> ("", "")
        in
        Printf.printf
          "%s under %s: NEAR-OPTIMAL cost=%d wirelength=%d vias=%d%s%s \
           (%.2fs)\n"
          clip.Clip.c_name rules.Rules.name sol.Route.metrics.cost
          sol.Route.metrics.wirelength sol.Route.metrics.vias gap_txt dual_txt
          stats.Optrouter_drv.elapsed_s)
    clips

let lp_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "lp-out" ] ~docv:"BASE" ~doc:"Also dump each clip's ILP as BASE.i.lp.")

let route_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "route-out" ] ~docv:"BASE"
        ~doc:"Write each routed solution as BASE.i.route.")

let route_cmd =
  let doc = "Route clips optimally under a rule configuration." in
  Cmd.v (Cmd.info "route" ~doc)
    Term.(
      const do_route $ tech_arg $ rule_arg $ objective_arg $ time_limit_arg
      $ solver_jobs_arg $ solve_mode_arg $ audit_flag $ lp_out_arg
      $ route_out_arg $ clips_file_arg $ log_term)

(* ---- sweep ---- *)

let do_sweep tech objective time_limit jobs solver_jobs solve_mode no_reuse
    audit csv_out path () =
  let clips = load_clips path in
  let config =
    config_of ~reuse:(not no_reuse) ~audit ~solver_jobs ~solve_mode ~time_limit
      ()
  in
  (* Baseline and rule solves share the objective — the zero-Δ fast path
     is only a proof when both optimise the same thing. *)
  let rules =
    List.map (Rules.with_objective objective) (Experiments.rules_for tech)
  in
  let baseline = Rules.with_objective objective (Rules.rule 1) in
  let telemetry = ref Sweep.empty_telemetry in
  let entries =
    Pool.with_pool ~domains:jobs (fun pool ->
        Sweep.sweep ~config ~pool ~telemetry ~baseline ~tech ~rules clips)
  in
  (match csv_out with
  | Some file ->
    Report.Csv.write_file file
      ~header:[ "clip"; "rule"; "base_cost"; "cost"; "dcost" ]
      (List.map
         (fun (e : Sweep.entry) ->
           [
             e.Sweep.clip_name;
             e.Sweep.rule_name;
             string_of_int e.Sweep.base_cost;
             (match e.Sweep.cost with Some c -> string_of_int c | None -> "");
             Printf.sprintf "%.0f" (Sweep.delta_value e.Sweep.delta);
           ])
         entries);
    Printf.printf "wrote %s\n" file
  | None -> ());
  let rows =
    List.map
      (fun (e : Sweep.entry) ->
        [
          e.Sweep.clip_name;
          e.Sweep.rule_name;
          string_of_int e.Sweep.base_cost;
          (match e.Sweep.cost with Some c -> string_of_int c | None -> "-");
          (match e.Sweep.delta with
          | Sweep.Delta d -> string_of_int d
          | Sweep.Infeasible -> "infeasible"
          | Sweep.Limit -> "limit");
        ])
      entries
  in
  print_string
    (Report.Table.render
       ~header:[ "clip"; "rule"; "cost(RULE1)"; "cost"; "dcost" ]
       rows);
  print_string
    (Report.Series.plot ~y_label:"sorted dcost per rule" (Sweep.series entries));
  print_string (Sweep.render_telemetry !telemetry)

let sweep_cmd =
  let doc = "Evaluate all applicable RULEs on clips and report Δcost." in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the entries as CSV.")
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const do_sweep $ tech_arg $ objective_arg $ time_limit_arg $ jobs_arg
      $ solver_jobs_arg $ solve_mode_arg $ no_reuse_arg $ audit_flag
      $ csv_out $ clips_file_arg $ log_term)

(* ---- gen ---- *)

let do_gen tech profile_name util scale seed top paper out () =
  let profile =
    match String.lowercase_ascii profile_name with
    | "aes" -> Design.aes
    | "m0" -> Design.m0
    | other ->
      Printf.eprintf "error: unknown profile %S (aes or m0)\n" other;
      exit 1
  in
  let profile = Experiments.scaled_profile scale profile in
  let d = Design.generate ~seed profile ~util tech in
  Printf.printf "%s\n" (Format.asprintf "%a" Design.pp d);
  let params =
    if paper then Extract.paper_params tech else Extract.reduced_params
  in
  let clips = Extract.windows params d in
  Printf.printf "extracted %d clips\n" (List.length clips);
  let ranked = Extract.top_k top clips in
  Clipfile.write_file out (List.map fst ranked);
  Printf.printf "wrote top %d clips (by pin cost) to %s\n" (List.length ranked) out

let gen_cmd =
  let doc = "Generate a synthetic design and write its most difficult clips." in
  let profile =
    Arg.(value & opt string "aes" & info [ "profile" ] ~docv:"NAME" ~doc:"aes or m0")
  in
  let util =
    Arg.(value & opt float 0.92 & info [ "util" ] ~docv:"U" ~doc:"Target utilisation.")
  in
  let scale =
    Arg.(
      value & opt float 0.03
      & info [ "scale" ] ~docv:"S" ~doc:"Instance count scale factor vs Table 2.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc:"Keep the K hardest clips.")
  in
  let paper =
    Arg.(
      value & flag
      & info [ "paper-size" ]
          ~doc:"Use paper-size windows (7x10 tracks, 8 layers) instead of reduced ones.")
  in
  let out =
    Arg.(
      value & opt string "clips.txt"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output clip file.")
  in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(
      const do_gen $ tech_arg $ profile $ util $ scale $ seed $ top $ paper $ out
      $ log_term)

(* ---- pincost ---- *)

let do_pincost path () =
  let clips = load_clips path in
  let rows =
    List.map
      (fun c ->
        [
          c.Clip.c_name;
          string_of_int (Clip.num_pins c);
          Printf.sprintf "%.2f" (Pin_cost.pec c);
          Printf.sprintf "%.2f" (Pin_cost.pac c);
          Printf.sprintf "%.2f" (Pin_cost.prc c);
          Printf.sprintf "%.2f" (Pin_cost.total c);
        ])
      clips
  in
  print_string
    (Report.Table.render ~header:[ "clip"; "pins"; "PEC"; "PAC"; "PRC"; "total" ] rows)

let pincost_cmd =
  let doc = "Rank clips by the pin cost metric (PEC + PAC + PRC)." in
  Cmd.v (Cmd.info "pincost" ~doc)
    Term.(const do_pincost $ clips_file_arg $ log_term)

(* ---- show ---- *)

let render_clip (c : Clip.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Format.asprintf "%a@." Clip.pp c);
  let grid = Array.make_matrix c.Clip.rows c.Clip.cols '.' in
  List.iteri
    (fun k (net : Clip.net) ->
      let ch = Char.chr (Char.code 'a' + (k mod 26)) in
      List.iter
        (fun (pin : Clip.pin) ->
          List.iter (fun (x, y) -> grid.(y).(x) <- ch) pin.Clip.access)
        net.Clip.pins)
    c.Clip.nets;
  List.iter (fun (x, y, z) -> if z = 0 then grid.(y).(x) <- 'X') c.Clip.obstructions;
  for y = c.Clip.rows - 1 downto 0 do
    for x = 0 to c.Clip.cols - 1 do
      Buffer.add_char buf grid.(y).(x);
      Buffer.add_char buf ' '
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let do_show path () =
  List.iter (fun c -> print_string (render_clip c)) (load_clips path)

let show_cmd =
  let doc = "Render clips as ASCII (access points on M2)." in
  Cmd.v (Cmd.info "show" ~doc) Term.(const do_show $ clips_file_arg $ log_term)

(* ---- cells ---- *)

let do_cells tech () =
  List.iter
    (fun c -> print_endline (Cells.render tech c))
    (Cells.library tech)

let cells_cmd =
  let doc = "Print the synthetic cell library's pin layouts (Figure 9)." in
  Cmd.v (Cmd.info "cells" ~doc) Term.(const do_cells $ tech_arg $ log_term)

(* ---- baseline ---- *)

let do_baseline tech rules path () =
  let clips = load_clips path in
  List.iter
    (fun clip ->
      let g = Graph.build ~tech ~rules clip in
      let r = Maze.route ~rules g in
      match r.Maze.solution with
      | Some sol ->
        Printf.printf "%s under %s (heuristic): cost=%d wirelength=%d vias=%d\n"
          clip.Clip.c_name rules.Rules.name sol.Route.metrics.cost
          sol.Route.metrics.wirelength sol.Route.metrics.vias
      | None ->
        Printf.printf "%s under %s (heuristic): FAILED\n" clip.Clip.c_name
          rules.Rules.name)
    clips

let baseline_cmd =
  let doc = "Route clips with the heuristic baseline router." in
  Cmd.v (Cmd.info "baseline" ~doc)
    Term.(const do_baseline $ tech_arg $ rule_arg $ clips_file_arg $ log_term)

(* ---- global: congestion view of a generated design ---- *)

let do_global tech profile_name util scale seed () =
  let profile =
    match String.lowercase_ascii profile_name with
    | "aes" -> Design.aes
    | "m0" -> Design.m0
    | other ->
      Printf.eprintf "error: unknown profile %S (aes or m0)\n" other;
      exit 1
  in
  let profile = Experiments.scaled_profile scale profile in
  let d = Design.generate ~seed profile ~util tech in
  Printf.printf "%s\n" (Format.asprintf "%a" Design.pp d);
  let params = Extract.reduced_params in
  let gr =
    Global.route ~cell_w:params.Extract.window_cols
      ~cell_h:params.Extract.window_rows d
  in
  let ngx, ngy = Global.grid_size gr in
  let c = Global.congestion gr in
  Printf.printf
    "global routing over %dx%d gcells: %d/%d boundaries used, peak %d, %d over capacity\n\n"
    ngx ngy c.Global.used_edges c.Global.total_edges c.Global.max_usage
    c.Global.overflowed;
  print_string (Global.render_congestion gr)

let global_cmd =
  let doc = "Globally route a generated design and print its congestion map." in
  let profile =
    Arg.(value & opt string "aes" & info [ "profile" ] ~docv:"NAME" ~doc:"aes or m0")
  in
  let util =
    Arg.(value & opt float 0.92 & info [ "util" ] ~docv:"U" ~doc:"Target utilisation.")
  in
  let scale =
    Arg.(
      value & opt float 0.05
      & info [ "scale" ] ~docv:"S" ~doc:"Instance count scale factor vs Table 2.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  Cmd.v (Cmd.info "global" ~doc)
    Term.(const do_global $ tech_arg $ profile $ util $ scale $ seed $ log_term)

(* ---- audit: static verification of every formulation, no solving ---- *)

let do_audit tech json_out verbose path () =
  let clips = load_clips path in
  let rules = Experiments.rules_for tech in
  let errors = ref 0 and warnings = ref 0 and infos = ref 0 in
  let reports = ref [] in
  let nforms = ref 0 in
  List.iter
    (fun clip ->
      List.iter
        (fun (r : Rules.t) ->
          incr nforms;
          let g = Graph.build ~tech ~rules:r clip in
          let form = Formulate.build ~rules:r g in
          let ds = Lp_audit.audit ~rules:r form in
          errors := !errors + Lp_audit.error_count ds;
          warnings := !warnings + List.length (Lp_audit.by_severity Lp_audit.Warning ds);
          infos := !infos + List.length (Lp_audit.by_severity Lp_audit.Info ds);
          reports :=
            Lp_audit.to_json
              ~meta:
                [
                  ("clip", Report.Json.String clip.Clip.c_name);
                  ("rule", Report.Json.String r.Rules.name);
                ]
              ds
            :: !reports;
          let shown =
            if verbose then ds else Lp_audit.by_severity Lp_audit.Error ds
          in
          if shown <> [] then begin
            Printf.printf "%s under %s:\n" clip.Clip.c_name r.Rules.name;
            print_string (Lp_audit.render shown)
          end)
        rules)
    clips;
  (match json_out with
  | Some file ->
    Report.Json.write_file file
      (Report.Json.Obj
         [
           ("tech", Report.Json.String tech.Tech.name);
           ("formulations", Report.Json.Int !nforms);
           ("errors", Report.Json.Int !errors);
           ("warnings", Report.Json.Int !warnings);
           ("infos", Report.Json.Int !infos);
           ("reports", Report.Json.List (List.rev !reports));
         ]);
    Printf.printf "wrote %s\n" file
  | None -> ());
  Printf.printf
    "audited %d formulations (%d clips x %d rules): %d errors, %d warnings, %d infos\n"
    !nforms (List.length clips) (List.length rules) !errors !warnings !infos;
  if !errors > 0 then exit 1

let audit_cmd =
  let doc =
    "Statically audit the ILP formulation of every (clip, applicable rule) \
     pair without solving: structure, conditioning, redundancy and \
     rule-coverage checks. Exits 1 when any error-level diagnostic is found."
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the full report as JSON.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Print warning- and info-level diagnostics too, not just errors.")
  in
  Cmd.v (Cmd.info "audit" ~doc)
    Term.(const do_audit $ tech_arg $ json_out $ verbose $ clips_file_arg $ log_term)

(* ---- lint: source lints over the project tree ---- *)

let do_lint par json_out expect_dirty paths () =
  let count, output =
    if par then begin
      let findings = Par_lint.lint_paths paths in
      ( List.length findings,
        if json_out then Par_lint.to_json findings ^ "\n"
        else Par_lint.render findings )
    end
    else begin
      let findings = Source_lint.lint_paths paths in
      (List.length findings, Source_lint.render findings)
    end
  in
  print_string output;
  if expect_dirty then begin
    if count = 0 then begin
      prerr_endline "lint: expected findings, found none";
      exit 1
    end;
    Printf.printf "%d finding(s), as expected\n" count
  end
  else if count > 0 then begin
    Printf.eprintf "lint: %d finding(s)\n" count;
    exit 1
  end

let lint_cmd =
  let doc =
    "Lint every .ml file under the given paths: by default the source \
     lints (L-rules: float conversions, float equality, catch-all \
     handlers, toplevel mutable state, determinism hazards); with \
     $(b,--par) the domain-safety lints (P-rules: unguarded cross-domain \
     mutation, atomic read-test-set windows, loopless condition waits, \
     blocking under a mutex, mixed lock discipline). Exits 1 when any \
     finding is reported, or — with $(b,--expect-dirty) — when none is."
  in
  let par =
    Arg.(
      value & flag
      & info [ "par" ] ~doc:"Run the domain-safety P-rules instead of the L-rules.")
  in
  let json_out =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the report as JSON (domain-safety lint only).")
  in
  let expect_dirty =
    Arg.(
      value & flag
      & info [ "expect-dirty" ]
          ~doc:
            "Reverse the exit convention: succeed only when findings are \
             reported. Lets CI assert known-bad fixtures stay detected.")
  in
  let paths =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"PATH" ~doc:"Files or directories to lint.")
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const do_lint $ par $ json_out $ expect_dirty $ paths $ log_term)

(* ---- solve-lp: the MILP solver as a standalone utility ---- *)

let read_text_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let do_solve_lp time_limit solver_jobs warm_basis basis_out path () =
  match Lp_file.read_file path with
  | Error msg ->
    Printf.eprintf "error: %s: %s\n" path msg;
    exit 1
  | Ok lp ->
    let has_integers =
      Array.exists
        (fun (v : Optrouter_ilp.Lp.var) -> v.Optrouter_ilp.Lp.kind = Optrouter_ilp.Lp.Integer)
        lp.Optrouter_ilp.Lp.vars
    in
    let print_point x =
      Array.iteri
        (fun j (v : Optrouter_ilp.Lp.var) ->
          if Float.abs x.(j) > 1e-9 then
            Printf.printf "  %s = %g\n" v.Optrouter_ilp.Lp.v_name x.(j))
        lp.Optrouter_ilp.Lp.vars
    in
    let basis =
      match warm_basis with
      | None -> None
      | Some file -> (
        match Simplex.Basis.of_string lp (read_text_file file) with
        | Ok (b, fixup) ->
          if fixup = `Patched then
            Printf.eprintf "note: warm basis %s repaired to fit %s\n" file path;
          Some b
        | Error msg ->
          Printf.eprintf "error: %s: %s\n" file msg;
          exit 1)
    in
    let simplex_params = Simplex.make_params ?basis () in
    let write_basis b =
      match basis_out with
      | None -> ()
      | Some file ->
        Report.write_atomic file (Simplex.Basis.to_string lp b);
        Printf.printf "wrote %s\n" file
    in
    if has_integers then begin
      let params =
        Milp.make_params ~time_limit_s:time_limit ~solver_jobs
          ~simplex:simplex_params ()
      in
      let r = Milp.solve ?root_basis:basis ~params lp in
      (match r.Milp.root_basis with Some b -> write_basis b | None -> ());
      match r.Milp.outcome with
      | Milp.Proved_optimal ->
        Printf.printf "optimal: %g (%d nodes)\n" r.Milp.objective r.Milp.nodes;
        print_point r.Milp.x
      | Milp.Feasible ->
        Printf.printf "feasible (limit hit): %g, bound %g\n" r.Milp.objective
          r.Milp.best_bound;
        print_point r.Milp.x
      | Milp.Infeasible -> print_endline "infeasible"
      | Milp.Unbounded -> print_endline "unbounded"
      | Milp.Unknown ->
        Printf.printf "unknown (limit hit), bound %g\n" r.Milp.best_bound
    end
    else begin
      let r = Simplex.solve ~params:simplex_params lp in
      match r.Simplex.status with
      | Simplex.Optimal ->
        write_basis r.Simplex.basis;
        Printf.printf "optimal: %g (%d iterations, %d bound flips)\n"
          r.Simplex.objective r.Simplex.iterations r.Simplex.bound_flips;
        print_point r.Simplex.x
      | Simplex.Infeasible -> print_endline "infeasible"
      | Simplex.Unbounded -> print_endline "unbounded"
    end

let solve_lp_cmd =
  let doc = "Solve an LP/MILP from an LP-format file with the bundled solver." in
  let lp_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.lp")
  in
  let warm_basis =
    Arg.(
      value
      & opt (some file) None
      & info [ "warm-basis" ] ~docv:"FILE"
          ~doc:
            "Warm-start the (root) LP from a basis file previously written \
             by $(b,--basis-out). Statuses are matched by name, so the \
             basis may come from a structurally different LP; mismatches \
             are repaired.")
  in
  let basis_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "basis-out" ] ~docv:"FILE"
          ~doc:
            "Write the optimal (root-)LP basis in the textual basis format \
             for later $(b,--warm-basis) reuse.")
  in
  Cmd.v (Cmd.info "solve-lp" ~doc)
    Term.(
      const do_solve_lp $ time_limit_arg $ solver_jobs_arg $ warm_basis
      $ basis_out $ lp_file $ log_term)

(* ---- serve / request ---- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to serve on / connect to.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port on 127.0.0.1 to serve on / connect to.")

let do_serve socket port cache_dir cache_capacity jobs solver_jobs batch queue
    time_limit () =
  let listeners =
    (match socket with Some p -> [ Serve.Unix_socket p ] | None -> [])
    @ (match port with Some p -> [ Serve.Tcp p ] | None -> [])
  in
  if listeners = [] then begin
    Printf.eprintf "error: give --socket PATH and/or --port PORT\n";
    exit 2
  end;
  let config = config_of ~solver_jobs ~time_limit () in
  let params =
    Serve.make_params ?cache_dir ~cache_capacity ~jobs ~solver_jobs
      ~batch_size:batch ~queue_capacity:queue ~time_limit_s:time_limit ~config
      ()
  in
  let t = Serve.create params in
  Fun.protect
    ~finally:(fun () -> Serve.destroy t)
    (fun () -> Serve.run t listeners)

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for the on-disk result-cache tier (created if missing). \
           Without it the cache is memory-only.")

let cache_capacity_arg =
  Arg.(
    value
    & opt int 512
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"In-memory result-cache capacity (LRU entries).")

let batch_arg =
  Arg.(
    value
    & opt int 8
    & info [ "batch" ] ~docv:"N"
        ~doc:"Max requests handed to the worker pool at once.")

let queue_arg =
  Arg.(
    value
    & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Pending-request bound. When full, the daemon stops reading from \
           connections until solves drain (backpressure).")

let serve_time_limit_arg =
  Arg.(
    value
    & opt float 60.0
    & info [ "time-limit" ] ~docv:"SECONDS"
        ~doc:
          "Server-side cap (and default) for per-request deadlines; a \
           request's $(b,deadline) header can only shorten it.")

let serve_cmd =
  let doc = "Run the routing daemon (routing as a service)." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Accepts clip-route requests over a Unix-domain socket and/or a \
         loopback TCP port, batches them onto the two-level worker-pool \
         engine, and answers repeated traffic from a content-addressed \
         result cache (in-memory LRU plus an optional on-disk tier). \
         Cache-hit answers are byte-identical to a fresh solve; only \
         proven results are cached.";
      `P
        "Send $(b,optrouter-shutdown) on a connection (or use $(b,optrouter \
         request --shutdown)) to drain and stop the daemon.";
    ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const do_serve $ socket_arg $ port_arg $ cache_dir_arg
      $ cache_capacity_arg $ jobs_arg $ solver_jobs_arg $ batch_arg
      $ queue_arg $ serve_time_limit_arg $ log_term)

let do_request socket port rule tech deadline no_cache stats shutdown path () =
  let listener =
    match (socket, port) with
    | Some p, None -> Serve.Unix_socket p
    | None, Some p -> Serve.Tcp p
    | Some _, Some _ ->
      Printf.eprintf "error: give either --socket or --port, not both\n";
      exit 2
    | None, None ->
      Printf.eprintf "error: give --socket PATH or --port PORT\n";
      exit 2
  in
  if path = None && not (stats || shutdown) then begin
    Printf.eprintf
      "error: nothing to do: give a clip file, --stats or --shutdown\n";
    exit 2
  end;
  let fd = Serve.connect listener in
  let failed = ref false in
  (* Each reply's cache-status line goes to stderr; stdout carries only
     the result payloads, so two runs of the same request can be compared
     byte-for-byte (the CI smoke test does exactly that). *)
  (match path with
  | None -> ()
  | Some path ->
    let clips = load_clips path in
    List.iter
      (fun clip ->
        let msg =
          Serve.text_request ?tech ?deadline_s:deadline ~no_cache ~rule
            (Clipfile.to_string clip)
        in
        match Serve.parse_response (Serve.roundtrip fd msg) with
        | Ok (status, payload) ->
          (match status with
          | Some s -> Printf.eprintf "%s\n" (Serve.status_line s)
          | None -> ());
          print_string payload
        | Error e ->
          Printf.eprintf "error: %s\n" e;
          failed := true)
      clips);
  if stats then print_string (Serve.roundtrip fd (Serve.stats_line ^ "\n"));
  if shutdown then
    print_string (Serve.roundtrip fd (Serve.shutdown_line ^ "\n"));
  (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
  if !failed then exit 1

let rule_num_arg =
  Arg.(
    value
    & opt int 1
    & info [ "rule" ] ~docv:"N"
        ~doc:"BEOL rule configuration RULEn (1..14) to request.")

let req_tech_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tech" ] ~docv:"NAME"
        ~doc:
          "Technology preset to request (defaults to each clip's own tech \
           line).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-request deadline; the server caps it at its own \
           $(b,--time-limit).")

let no_cache_flag =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Ask the server to solve even when the result is cached.")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print the server's cache/serve counters.")

let shutdown_flag =
  Arg.(
    value & flag
    & info [ "shutdown" ] ~doc:"Ask the daemon to drain and stop.")

let req_clips_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"CLIPS"
        ~doc:"Clip file; each clip becomes one request.")

let request_cmd =
  let doc = "Send routing requests to a running daemon." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Connects to an $(b,optrouter serve) daemon, sends one request per \
         clip in the file, and prints each result payload on stdout (the \
         cache-status line of every reply goes to stderr, so payloads of \
         repeated runs can be compared byte-for-byte).";
    ]
  in
  Cmd.v (Cmd.info "request" ~doc ~man)
    Term.(
      const do_request $ socket_arg $ port_arg $ rule_num_arg $ req_tech_arg
      $ deadline_arg $ no_cache_flag $ stats_flag $ shutdown_flag
      $ req_clips_arg $ log_term)

let main_cmd =
  let doc = "optimal ILP-based detailed router for BEOL design-rule evaluation" in
  Cmd.group
    (Cmd.info "optrouter" ~version:"1.0.0" ~doc)
    [
      route_cmd; sweep_cmd; audit_cmd; lint_cmd; gen_cmd; pincost_cmd;
      show_cmd; cells_cmd; baseline_cmd; solve_lp_cmd; global_cmd;
      serve_cmd; request_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
