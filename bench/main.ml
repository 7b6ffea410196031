(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, at a scale the pure-OCaml MILP solver handles in
   minutes (see DESIGN.md / EXPERIMENTS.md for the scale mapping).

   Usage: main.exe [-j N] [--solver-jobs N] [--no-reuse] [SECTION...]
   Sections: table2 table3 fig7 fig8 fig9 fig10a fig10b fig10c audit
             ilpsize validate runtime ablation solver lagrangian
             (default: all)

   [-j N] fans the independent ILP solves of the sweep sections (fig10*,
   validate) over N domains; the reported tables and figures are
   byte-identical to a serial run.

   [--solver-jobs N] additionally lets each branch-and-bound search run
   on up to N worker domains (two-level scheduling: under -j, solves only
   widen while pool domains are idle). Proved optima are identical; only
   node counts and times change.

   [--no-reuse] disables the baseline-reuse layer of the sweep sections:
   every (clip, rule) ILP re-solves from scratch instead of re-checking /
   re-encoding the RULE1 baseline routing. Entries are identical either
   way; use it to measure what reuse saves (see results/BENCH_sweep.json).

   Environment knobs:
     OPTROUTER_JOBS               default for -j (default 1 = serial)
     OPTROUTER_SOLVER_JOBS        default for --solver-jobs (default 1)
     OPTROUTER_LOG                diagnostics level: quiet (the default),
                                  error, warning, info or debug; info
                                  traces each (clip, rule) sweep solve
     OPTROUTER_BENCH_CLIPS        top-k clips per technology (default 6)
     OPTROUTER_BENCH_TIME         wall-clock seconds per ILP solve
                                  (default 15)
     OPTROUTER_BENCH_SCALE        instance-count scale factor (default 0.03)
     OPTROUTER_BENCH_OBJECTIVE    fig10 sweep objective (default wirelength)
     OPTROUTER_BENCH_ROOT_BUDGET  wall seconds per root-LP solve of the
                                  solver section (default: the smaller of
                                  10 and OPTROUTER_BENCH_TIME)
     OPTROUTER_BENCH_LAG_CLIPS    paper-size clips per technology of the
                                  lagrangian section (default 20)
     OPTROUTER_BENCH_LAG_ITERS    sub-gradient iterations per lagrangian
                                  solve (default 40)

   The serve daemon's load generator is perfbench's serve-mixed workload
   (python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 30). *)

module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Via_shape = Optrouter_tech.Via_shape
module Clip = Optrouter_grid.Clip
module Graph = Optrouter_grid.Graph
module Cells = Optrouter_cells.Cells
module Design = Optrouter_design.Design
module Extract = Optrouter_clips.Extract
module Formulate = Optrouter_core.Formulate
module Optrouter = Optrouter_core.Optrouter
module Route = Optrouter_grid.Route
module Sweep = Optrouter_eval.Sweep
module Scoreboard = Optrouter_eval.Scoreboard
module Experiments = Optrouter_eval.Experiments
module Report = Optrouter_report.Report
module Lp = Optrouter_ilp.Lp
module Simplex = Optrouter_ilp.Simplex
module Milp = Optrouter_ilp.Milp
module Lagrangian = Optrouter_lagrangian.Lagrangian
module Pool = Optrouter_exec.Pool
module Lp_audit = Optrouter_analysis.Lp_audit
module Clipfile = Optrouter_clipfile.Clipfile

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

let env_float name default =
  match Sys.getenv_opt name with
  | Some v -> ( match float_of_string_opt v with Some f -> f | None -> default)
  | None -> default

(* Sweep objective for the fig10 sections (and their CSVs / telemetry
   dump): the paper's combined cost unless OPTROUTER_BENCH_OBJECTIVE
   picks a via profile. An unparseable value aborts rather than silently
   benchmarking the wrong objective. *)
let bench_objective =
  match Sys.getenv_opt "OPTROUTER_BENCH_OBJECTIVE" with
  | None -> Rules.Wirelength
  | Some s -> (
    match Rules.objective_of_name (String.lowercase_ascii s) with
    | Ok o -> o
    | Error msg ->
      Printf.eprintf "error: OPTROUTER_BENCH_OBJECTIVE: %s\n" msg;
      exit 2)

let bench_params =
  {
    Experiments.default_fig10_params with
    Experiments.top_clips = env_int "OPTROUTER_BENCH_CLIPS" 6;
    time_limit_s = env_float "OPTROUTER_BENCH_TIME" 15.0;
    instance_scale = env_float "OPTROUTER_BENCH_SCALE" 0.03;
    objective = bench_objective;
  }

(* The domain pool shared by the sweep sections; set up once in [main]
   from [-j]/[OPTROUTER_JOBS]. [None] means serial. *)
let pool : Pool.t option ref = ref None

(* Baseline reuse in the sweep sections; cleared by [--no-reuse]. *)
let reuse = ref true

(* Solver telemetry accumulated across every sweep section of the run,
   dumped as results/BENCH_sweep.json so CI can track the perf
   trajectory (solves, fast-path hits, nodes, busy vs wall seconds). *)
let sweep_telemetry = ref Sweep.empty_telemetry
let sweep_sections_run = ref 0

(* [Sweep.merge_telemetry] merges wall fields with [max] (shards are
   assumed concurrent), but bench sections run back to back — their
   elapsed times add. Keep the sequential total separately. *)
let sweep_sections_wall_s = ref 0.0

let jobs_used = ref 1

(* Per-solve branch-and-bound width for the sweep sections; set up in
   [main] from [--solver-jobs]/[OPTROUTER_SOLVER_JOBS]. *)
let solver_jobs = ref 1

let results_dir = "results"

let ensure_results_dir () =
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755

let write_sweep_json () =
  ensure_results_dir ();
  let t = !sweep_telemetry in
  let path = Filename.concat results_dir "BENCH_sweep.json" in
  Report.Json.write_file path
    (Report.Json.Obj
       [
         ("sections", Report.Json.Int !sweep_sections_run);
         ("objective", Report.Json.String (Rules.objective_name bench_objective));
         ("jobs", Report.Json.Int !jobs_used);
         ("solver_jobs", Report.Json.Int !solver_jobs);
         ("reuse", Report.Json.Bool !reuse);
         ("solves", Report.Json.Int t.Sweep.solves);
         ("fast_path_hits", Report.Json.Int t.Sweep.fast_path_hits);
         ("seeded_incumbents", Report.Json.Int t.Sweep.seeded_incumbents);
         ("nodes", Report.Json.Int t.Sweep.nodes);
         ("simplex_iterations", Report.Json.Int t.Sweep.simplex_iterations);
         ("busy_s", Report.Json.Float t.Sweep.busy_s);
         (* wall_s: widest single section (merge is by max); the
            sequential total elapsed across sections is separate. *)
         ("wall_s", Report.Json.Float t.Sweep.wall_s);
         ("sections_wall_s", Report.Json.Float !sweep_sections_wall_s);
         ("limits", Report.Json.Int t.Sweep.limits);
         ("infeasible", Report.Json.Int t.Sweep.infeasible);
         ("failures", Report.Json.Int t.Sweep.failures);
         ("steals", Report.Json.Int t.Sweep.steals);
         ("solver_busy_s", Report.Json.Float t.Sweep.solver_busy_s);
         ("solver_wall_s", Report.Json.Float t.Sweep.solver_wall_s);
         ("peak_workers", Report.Json.Int t.Sweep.peak_workers);
       ]);
  Printf.printf "[sweep telemetry written to %s]\n%!" path

let banner title =
  Printf.printf "\n================ %s ================\n" title

(* Host caveat for a width series that runs [domains] [noun] domains
   ("worker", "pricing") at its widest: no speedup is measurable on one
   core, and it is capped at [cores]x on fewer cores than domains. *)
let host_note ~cores ~domains ~noun base =
  if cores = 1 then
    Printf.sprintf
      "Host exposes 1 core: the %d %s domains time-slice it, so no \
       wall-clock speedup is measurable here — the width series verifies \
       the determinism contract and bounds the fan-out overhead. %s"
      domains noun base
  else if cores < domains then
    Printf.sprintf
      "Host exposes %d cores: the %d %s domains time-slice them, so the \
       speedup is capped at %dx. %s"
      cores domains noun cores base
  else base

let section_table2 () =
  banner "Table 2: benchmark designs";
  print_string
    (Report.Table.render ~header:Experiments.table2_header
       (Experiments.table2_rows ()))

let section_table3 () =
  banner "Table 3: BEOL design rule configurations";
  print_string
    (Report.Table.render ~header:Experiments.table3_header
       (Experiments.table3_rows ()))

let render_clip (c : Clip.t) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "%s [%s] (M2 access points)\n" c.Clip.c_name c.Clip.tech_name);
  let grid = Array.make_matrix c.Clip.rows c.Clip.cols '.' in
  List.iteri
    (fun k (net : Clip.net) ->
      let ch = Char.chr (Char.code 'a' + (k mod 26)) in
      List.iter
        (fun (pin : Clip.pin) ->
          List.iter (fun (x, y) -> grid.(y).(x) <- ch) pin.Clip.access)
        net.Clip.pins)
    c.Clip.nets;
  for y = c.Clip.rows - 1 downto 0 do
    for x = 0 to c.Clip.cols - 1 do
      Buffer.add_char buf grid.(y).(x);
      Buffer.add_char buf ' '
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let section_fig7 () =
  banner "Figure 7: routing clips extracted per technology";
  List.iter
    (fun tech ->
      match
        Experiments.difficult_clips
          ~params:{ bench_params with Experiments.top_clips = 1 }
          tech
      with
      | clip :: _ -> print_string (render_clip clip)
      | [] -> Printf.printf "(no clip extracted for %s)\n" tech.Tech.name)
    Tech.all

let section_fig8 () =
  banner "Figure 8: pin cost distributions (N7-9T, AES and M0)";
  let series = Experiments.fig8 () in
  let rows =
    List.map
      (fun (s : Experiments.fig8_series) ->
        let n = Array.length s.Experiments.top_costs in
        let v i = s.Experiments.top_costs.(min i (max 0 (n - 1))) in
        [
          s.Experiments.label;
          string_of_int n;
          Printf.sprintf "%.1f" (v (n - 1));
          Printf.sprintf "%.1f" (v (n / 2));
          Printf.sprintf "%.1f" (v 0);
        ])
      series
  in
  print_string
    (Report.Table.render
       ~header:[ "version"; "#top clips"; "min"; "median"; "max" ]
       rows);
  print_string
    (Report.Series.plot ~y_label:"top pin costs (sorted descending)"
       (List.map
          (fun (s : Experiments.fig8_series) ->
            (s.Experiments.label, s.Experiments.top_costs))
          series));
  Printf.printf "paper-claim scoreboard:\n";
  Format.printf "%a" Scoreboard.pp_findings (Scoreboard.fig8_findings series);
  ensure_results_dir ();
  Report.Csv.write_file
    (Filename.concat results_dir "fig8.csv")
    ~header:[ "version"; "rank"; "pin_cost" ]
    (List.concat_map
       (fun (s : Experiments.fig8_series) ->
         Array.to_list
           (Array.mapi
              (fun i c ->
                [ s.Experiments.label; string_of_int i; Printf.sprintf "%.3f" c ])
              s.Experiments.top_costs))
       series)

let section_fig9 () =
  banner "Figure 9: NAND2X1 pin shapes per technology";
  List.iter
    (fun tech -> print_endline (Cells.render tech (Cells.nand2 tech)))
    Tech.all

let fig10_for name tech =
  banner
    (Printf.sprintf "Figure 10%s: dcost per rule, %s (reduced scale%s)" name
       tech.Tech.name
       (match bench_objective with
       | Rules.Wirelength -> ""
       | o -> ", objective " ^ Rules.objective_name o));
  let telemetry = ref Sweep.empty_telemetry in
  let params =
    { bench_params with Experiments.reuse = !reuse; solver_jobs = !solver_jobs }
  in
  let entries =
    Experiments.fig10 ~params ?pool:!pool ~telemetry tech
  in
  incr sweep_sections_run;
  sweep_telemetry := Sweep.merge_telemetry !sweep_telemetry !telemetry;
  sweep_sections_wall_s := !sweep_sections_wall_s +. !telemetry.Sweep.wall_s;
  if entries = [] then print_endline "(no routable clips at this scale)"
  else begin
    let series = Sweep.series entries in
    print_string
      (Report.Series.plot ~y_label:"sorted dcost (500 = unroutable)" series);
    let counts = Sweep.infeasible_counts entries in
    let rows =
      List.map
        (fun (rule, n) ->
          let values = List.assoc rule series in
          let finite = Array.to_list values |> List.filter (fun v -> v < 499.0) in
          let solved = List.length finite in
          let mean =
            match finite with
            | [] -> "-"
            | _ ->
              Printf.sprintf "%.1f"
                (List.fold_left ( +. ) 0.0 finite /. float_of_int solved)
          in
          [
            rule;
            string_of_int (Array.length values);
            string_of_int solved;
            mean;
            string_of_int n;
          ])
        counts
    in
    print_string
      (Report.Table.render
         ~header:
           [ "rule"; "#clips"; "#solved"; "mean dcost (solved)"; "#infeasible" ]
         rows);
    Printf.printf "paper-claim scoreboard:\n";
    Format.printf "%a" Scoreboard.pp_findings (Scoreboard.fig10_findings entries);
    ensure_results_dir ();
    Report.Csv.write_file
      (Filename.concat results_dir (Printf.sprintf "fig10%s.csv" name))
      ~header:[ "clip"; "rule"; "objective"; "base_cost"; "cost"; "dcost" ]
      (List.map
         (fun (e : Sweep.entry) ->
           [
             e.Sweep.clip_name;
             e.Sweep.rule_name;
             Rules.objective_name bench_objective;
             string_of_int e.Sweep.base_cost;
             (match e.Sweep.cost with Some c -> string_of_int c | None -> "");
             Printf.sprintf "%.0f" (Sweep.delta_value e.Sweep.delta);
           ])
         entries)
  end;
  print_string (Sweep.render_telemetry !telemetry)

let section_ilpsize () =
  banner "Section 4.2: ILP variable/constraint counts";
  print_string
    (Report.Table.render ~header:Experiments.ilp_size_header
       (Experiments.ilp_size_rows ()))

let section_validate () =
  banner "Footnote 6: OptRouter vs heuristic baseline (RULE1)";
  let rows = ref [] in
  let deltas = ref [] in
  List.iter
    (fun tech ->
      let params = { bench_params with Experiments.top_clips = 3 } in
      List.iter
        (fun (v : Experiments.validation) ->
          let delta =
            match (v.Experiments.opt_cost, v.Experiments.baseline_cost) with
            | Some o, Some b ->
              deltas := float_of_int (o - b) :: !deltas;
              string_of_int (o - b)
            | _, _ -> "-"
          in
          rows :=
            [
              tech.Tech.name;
              v.Experiments.v_clip;
              (match v.Experiments.opt_cost with
              | Some c -> string_of_int c
              | None -> "-");
              (match v.Experiments.baseline_cost with
              | Some c -> string_of_int c
              | None -> "-");
              delta;
            ]
            :: !rows)
        (Experiments.validate ~params ?pool:!pool tech))
    Tech.all;
  print_string
    (Report.Table.render
       ~header:[ "tech"; "clip"; "OptRouter"; "baseline"; "dcost" ]
       (List.rev !rows));
  match !deltas with
  | [] -> ()
  | ds ->
    let mean = List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds) in
    Printf.printf
      "average dcost (OptRouter - baseline): %.1f (paper reports -10..-15 on \
       an average cost of ~380)\n"
      mean

let section_runtime () =
  banner "Section 5: OptRouter runtime per switchbox";
  let rows =
    List.map
      (fun (label, without_rules, with_rules) ->
        [
          label;
          Printf.sprintf "%.2f s" without_rules;
          Printf.sprintf "%.2f s" with_rules;
        ])
      (Experiments.runtime ~params:bench_params ())
  in
  print_string
    (Report.Table.render
       ~header:[ "switchbox size"; "no SADP/via rules"; "SADP + via rules" ]
       rows)

let section_ablation () =
  banner "Ablation: via cost weight (routing cost = WL + w * #vias)";
  let clip =
    match
      Experiments.difficult_clips
        ~params:{ bench_params with Experiments.top_clips = 1 }
        Tech.n28_12t
    with
    | c :: _ -> c
    | [] -> failwith "no clip"
  in
  let rows =
    List.map
      (fun w ->
        let tech = { Tech.n28_12t with Tech.via_weight = w } in
        match
          (Optrouter.route ~tech ~rules:(Rules.rule 1) clip).Optrouter.verdict
        with
        | Optrouter.Routed sol ->
          [
            string_of_int w;
            string_of_int sol.Route.metrics.wirelength;
            string_of_int sol.Route.metrics.vias;
            string_of_int sol.Route.metrics.cost;
          ]
        | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ ->
          [ string_of_int w; "-"; "-"; "-" ])
      [ 1; 2; 4; 8 ]
  in
  print_string
    (Report.Table.render ~header:[ "via weight"; "WL"; "#vias"; "cost" ] rows);
  banner "Ablation: SADP linearisation (collapsed vs paper aux binaries)";
  let g = Graph.build ~tech:Tech.n28_12t ~rules:(Rules.rule 2) clip in
  let time f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  let run options =
    time (fun () ->
        let config = Optrouter.make_config ~options () in
        Optrouter.route_graph ~config ~rules:(Rules.rule 2) g)
  in
  let collapsed, t_collapsed = run Formulate.default_options in
  let aux, t_aux =
    run { Formulate.default_options with Formulate.sadp_aux_vars = true }
  in
  let cost r =
    match Optrouter.cost_of r with Some c -> string_of_int c | None -> "-"
  in
  print_string
    (Report.Table.render
       ~header:[ "linearisation"; "cost"; "CPU s" ]
       [
         [ "collapsed (default)"; cost collapsed; Printf.sprintf "%.2f" t_collapsed ];
         [ "paper (9) aux vars"; cost aux; Printf.sprintf "%.2f" t_aux ];
       ]);
  banner "Ablation: unidirectional vs bidirectional layers";
  (* The paper fixes all layers unidirectional ('used because of better
     robustness, scalability and manufacturability'); this quantifies what
     that choice costs on the representative clip. *)
  let rep = Experiments.representative_clip in
  let route_dir bidirectional =
    let config = Optrouter.make_config ~bidirectional () in
    match
      (Optrouter.route ~config ~tech:Tech.n28_12t ~rules:(Rules.rule 1) rep)
        .Optrouter.verdict
    with
    | Optrouter.Routed sol ->
      [
        (if bidirectional then "bidirectional (LELE luxury)"
         else "unidirectional (paper)");
        string_of_int sol.Route.metrics.wirelength;
        string_of_int sol.Route.metrics.vias;
        string_of_int sol.Route.metrics.cost;
      ]
    | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ ->
      [ (if bidirectional then "bidirectional" else "unidirectional"); "-"; "-"; "-" ]
  in
  print_string
    (Report.Table.render
       ~header:[ "layer directionality"; "WL"; "#vias"; "cost" ]
       [ route_dir false; route_dir true ])

(* Solver microbenchmark: serial vs parallel branch and bound on the
   hardest bundled clip of each technology that the serial solver can
   prove within the time budget — a clip whose root relaxation alone
   eats the budget has no search tree to parallelise and would only
   measure the time limit. The chosen MILP is re-solved from scratch —
   no incumbent seed, no heuristic warm start — at widths 1, 2 and 4.
   Proved optima must agree across widths (the solver's determinism
   contract); a disagreement fails the run. *)
let section_solver () =
  banner "solver: serial vs parallel branch and bound";
  let widths = [ 1; 2; 4 ] in
  let cores = Domain.recommended_domain_count () in
  let time_limit = env_float "OPTROUTER_BENCH_TIME" 15.0 in
  let rows = ref [] in
  let per_tech = ref [] in
  let mismatches = ref 0 in
  let serial_nodes = ref [] in
  (* Root-LP study accumulators: per-mode relaxation solves on a hoisted
     Simplex.Instance (one per (clip, rule) LP — instance build time is
     reported separately, never folded into a solve wall). *)
  let root_rows = ref [] in
  let root_json = ref [] in
  (* Per-mode wall budget for the root-LP study: a root solve that cannot
     finish is recorded as a budget hit instead of letting the study run
     unbounded. The default must clear the slowest devex cold solve
     comfortably or the whole tech drops out of the comparison. *)
  let root_budget =
    env_float "OPTROUTER_BENCH_ROOT_BUDGET" (Float.min 10.0 time_limit)
  in
  let outcome_name = function
    | Milp.Proved_optimal -> "optimal"
    | Milp.Feasible -> "feasible"
    | Milp.Infeasible -> "infeasible"
    | Milp.Unbounded -> "unbounded"
    | Milp.Unknown -> "unknown"
  in
  let status_name = function
    | Simplex.Optimal -> "optimal"
    | Simplex.Infeasible -> "infeasible"
    | Simplex.Unbounded -> "unbounded"
  in
  let solve_width lp jobs =
    let params =
      Milp.make_params ~max_nodes:500_000 ~time_limit_s:time_limit
        ~solver_jobs:jobs ()
    in
    Milp.solve ~params lp
  in
  (* Root-relaxation warm-start study on [clip]: RULE1 plus the first few
     applicable rules, each LP prepared once (Simplex.Instance.create,
     timed separately) and root-solved cold and — for RULEk — warm-started
     from the RULE1 optimal basis remapped by name. A finished warm solve
     must reach the cold status, and every Optimal result must pass the
     independent certificate check and match the cold objective. *)
  let root_lp_study tech clip =
    let wall f =
      (* fast solves get min-of-3 (a single microsecond-scale timing is
         scheduler noise); slow ones keep their single measurement *)
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = ref (Unix.gettimeofday () -. t0) in
      if !dt < 0.2 then
        for _ = 2 to 3 do
          let t0 = Unix.gettimeofday () in
          ignore (f ());
          let d = Unix.gettimeofday () -. t0 in
          if d < !dt then dt := d
        done;
      (r, !dt)
    in
    let run_mode inst lp name params =
      let deadline = Unix.gettimeofday () +. root_budget in
      let params = { params with Simplex.Params.deadline_s = Some deadline } in
      match wall (fun () -> Simplex.Instance.solve ~params inst) with
      | r, w ->
        let verified =
          r.Simplex.status = Simplex.Optimal
          && Simplex.verify_optimal lp r = Ok ()
        in
        Some (name, r, w, verified)
      | exception Simplex.Numerical_failure _ ->
        (* deadline or iteration budget exhausted: a legitimate study
           outcome for the slow mode, not a bench failure *)
        Printf.printf "root-LP budget hit: %s %s %s (%.1f s)\n"
          tech.Tech.name clip.Clip.c_name name root_budget;
        None
    in
    let study_rules =
      Rules.rule 1
      :: (Experiments.rules_for tech |> List.filteri (fun i _ -> i < 4))
    in
    let rule1_assoc = ref None in
    (* Set once the RULE1 entry fails to yield a reusable basis: without
       it there is nothing to warm-start, and the remaining rules would
       only measure the budget itself. Such entries are skipped and
       logged. *)
    let no_basis = ref false in
    let entries =
      List.filter_map
        (fun (r : Rules.t) ->
          if !no_basis then None
          else begin
          let g = Graph.build ~tech ~rules:r clip in
          let lp = Formulate.lp (Formulate.build ~rules:r g) in
          let inst, build_s = wall (fun () -> Simplex.Instance.create lp) in
          let devex_cold = run_mode inst lp "devex" Simplex.Params.default in
          let devex_warm =
            match !rule1_assoc with
            | None -> None
            | Some assoc ->
              let basis, _fixup = Simplex.Basis.of_assoc lp assoc in
              run_mode inst lp "devex+warm" (Simplex.make_params ~basis ())
          in
          (match (r.Rules.name, devex_cold) with
          | "RULE1", Some (_, res, _, _) when res.Simplex.status = Simplex.Optimal
            ->
            rule1_assoc := Some (Simplex.Basis.to_assoc lp res.Simplex.basis)
          | "RULE1", _ ->
            no_basis := true;
            Printf.printf
              "root-LP study: %s %s RULE1 root unsolved within budget; \
               skipping RULEk warm-start entries\n"
              tech.Tech.name clip.Clip.c_name
          | _ -> ());
          (* The cold root is the reference the warm one must reproduce:
             the same status and, between two Optimal roots, the same
             objective. Non-Optimal objectives are phase-1 values and are
             never compared. *)
          let reference =
            Option.map (fun (_, (res : Simplex.result), _, _) -> res) devex_cold
          in
          let mode_json ~reference (name, (res : Simplex.result), w, verified) =
            let status = status_name res.Simplex.status in
            let identical =
              match reference with
              | None -> None
              | Some ref_res when ref_res.Simplex.status <> res.Simplex.status ->
                incr mismatches;
                Printf.printf
                  "ROOT-LP STATUS MISMATCH: %s %s %s is %s, devex is %s\n"
                  clip.Clip.c_name r.Rules.name name status
                  (status_name ref_res.Simplex.status);
                None
              | Some _ when res.Simplex.status <> Simplex.Optimal -> None
              | Some ref_res ->
                let same =
                  Float.abs (res.Simplex.objective -. ref_res.Simplex.objective)
                  <= 1e-9
                in
                if not same then begin
                  incr mismatches;
                  Printf.printf
                    "ROOT-LP MISMATCH: %s %s %s proved %g, devex proved %g\n"
                    clip.Clip.c_name r.Rules.name name res.Simplex.objective
                    ref_res.Simplex.objective
                end;
                Some same
            in
            (* none for a root that needed no iteration: a non-finite
               float is not valid JSON *)
            let ms_per_iter =
              if res.Simplex.iterations > 0 then
                Some (w *. 1e3 /. float_of_int res.Simplex.iterations)
              else None
            in
            if res.Simplex.status = Simplex.Optimal && not verified then begin
              incr mismatches;
              Printf.printf "ROOT-LP UNVERIFIED: %s %s %s\n" clip.Clip.c_name
                r.Rules.name name
            end;
            root_rows :=
              [
                tech.Tech.name;
                r.Rules.name;
                name;
                status;
                string_of_int res.Simplex.iterations;
                string_of_int res.Simplex.bound_flips;
                (match res.Simplex.warm with
                | `Cold -> "cold"
                | `Reused -> "reused"
                | `Repaired -> "repaired");
                Printf.sprintf "%.3f" (w *. 1e3);
                Option.fold ms_per_iter ~none:"-" ~some:(Printf.sprintf "%.3f");
                Printf.sprintf "%g" res.Simplex.objective;
                (if verified then "yes" else "-");
              ]
              :: !root_rows;
            ( name,
              Report.Json.Obj
                ([
                  ("status", Report.Json.String status);
                  ("iterations", Report.Json.Int res.Simplex.iterations);
                  ("bound_flips", Report.Json.Int res.Simplex.bound_flips);
                  ( "warm",
                    Report.Json.String
                      (match res.Simplex.warm with
                      | `Cold -> "cold"
                      | `Reused -> "reused"
                      | `Repaired -> "repaired") );
                  ("wall_s", Report.Json.Float w);
                ]
                @ Option.fold ms_per_iter ~none:[] ~some:(fun v ->
                      [ ("ms_per_iter", Report.Json.Float v) ])
                @ [
                    ("objective", Report.Json.Float res.Simplex.objective);
                    ("verified", Report.Json.Bool verified);
                  ]
                @ Option.fold identical ~none:[] ~some:(fun same ->
                      [ ("objective_identical", Report.Json.Bool same) ])) )
          in
          let mode_fields =
            List.filter_map
              (fun (mode, reference) -> Option.map (mode_json ~reference) mode)
              [ (devex_cold, None); (devex_warm, reference) ]
          in
          Some
            (Report.Json.Obj
               (("rule", Report.Json.String r.Rules.name)
               :: ("build_s", Report.Json.Float build_s)
               :: mode_fields))
          end)
        study_rules
    in
    root_json :=
      ( tech.Tech.name,
        Report.Json.Obj
          [
            ("clip", Report.Json.String clip.Clip.c_name);
            ("rules", Report.Json.List entries);
          ] )
      :: !root_json
  in
  List.iter
    (fun tech ->
      let clips =
        Experiments.difficult_clips
          ~params:{ bench_params with Experiments.top_clips = 4 }
          tech
      in
      (* Hardest first: the first clip the serial solver proves within
         the budget is the benchmark instance; its serial run is reused
         as the width-1 measurement. *)
      let rec pick = function
        | [] -> None
        | clip :: rest -> (
          let rules = Rules.rule 1 in
          let g = Graph.build ~tech ~rules clip in
          let lp = Formulate.lp (Formulate.build ~rules g) in
          let r = solve_width lp 1 in
          match r.Milp.outcome with
          | Milp.Proved_optimal -> Some (clip, lp, r)
          | _ -> if rest = [] then Some (clip, lp, r) else pick rest)
      in
      match pick clips with
      | None -> Printf.printf "(no clip extracted for %s)\n" tech.Tech.name
      | Some (clip, lp, serial_run) ->
        serial_nodes := serial_run.Milp.nodes :: !serial_nodes;
        let serial = ref None in
        let runs =
          List.map
            (fun jobs ->
              let r = if jobs = 1 then serial_run else solve_width lp jobs in
              (match (!serial, r.Milp.outcome) with
              | None, _ -> serial := Some r
              | Some s, Milp.Proved_optimal
                when s.Milp.outcome = Milp.Proved_optimal
                     && Float.abs (s.Milp.objective -. r.Milp.objective)
                        > 1e-6 ->
                incr mismatches;
                Printf.printf
                  "MISMATCH: %s at %d workers proved %g, serial proved %g\n"
                  clip.Clip.c_name jobs r.Milp.objective s.Milp.objective
              | Some _, _ -> ());
              let speedup =
                match !serial with
                | Some s when r.Milp.solver_wall_s > 0.0 ->
                  s.Milp.solver_wall_s /. r.Milp.solver_wall_s
                | Some _ | None -> 0.0
              in
              rows :=
                [
                  tech.Tech.name;
                  clip.Clip.c_name;
                  string_of_int jobs;
                  outcome_name r.Milp.outcome;
                  Printf.sprintf "%g" r.Milp.objective;
                  string_of_int r.Milp.nodes;
                  string_of_int r.Milp.steals;
                  Printf.sprintf "%.3f" r.Milp.solver_wall_s;
                  Printf.sprintf "%.3f" r.Milp.solver_busy_s;
                  Printf.sprintf "%.2f" speedup;
                ]
                :: !rows;
              Report.Json.Obj
                [
                  ("workers", Report.Json.Int jobs);
                  ("outcome", Report.Json.String (outcome_name r.Milp.outcome));
                  ("objective", Report.Json.Float r.Milp.objective);
                  ("nodes", Report.Json.Int r.Milp.nodes);
                  ("steals", Report.Json.Int r.Milp.steals);
                  ("wall_s", Report.Json.Float r.Milp.solver_wall_s);
                  ("busy_s", Report.Json.Float r.Milp.solver_busy_s);
                  ("speedup_vs_serial", Report.Json.Float speedup);
                ])
            widths
        in
        per_tech :=
          ( tech.Tech.name,
            Report.Json.Obj
              [
                ("clip", Report.Json.String clip.Clip.c_name);
                ("runs", Report.Json.List runs);
              ] )
          :: !per_tech;
        root_lp_study tech clip)
    Tech.all;
  print_string
    (Report.Table.render
       ~header:
         [
           "tech"; "clip"; "workers"; "outcome"; "objective"; "nodes";
           "steals"; "wall s"; "busy s"; "speedup";
         ]
       (List.rev !rows));
  let max_nodes = List.fold_left max 0 !serial_nodes in
  let note =
    let tree =
      if max_nodes <= 4 then
        Printf.sprintf
          "The bundled instances' LP relaxations are tight (largest serial \
           tree: %d node(s)), so branch and bound finishes at or near the \
           root and there is nothing for extra workers to steal — the runs \
           above verify the determinism contract and bound the spawn \
           overhead; the harness applies unchanged to larger instances \
           (OPTROUTER_BENCH_SCALE / paper-size clips) where trees grow."
          max_nodes
      else
        Printf.sprintf
          "speedup_vs_serial at 4 workers is the headline number (largest \
           serial tree: %d nodes)."
          max_nodes
    in
    host_note ~cores ~domains:(List.fold_left max 1 widths) ~noun:"worker"
      tree
  in
  Printf.printf "note: %s\n" note;
  banner "solver: root-LP warm starts";
  print_string
    (Report.Table.render
       ~header:
         [
           "tech"; "rule"; "mode"; "status"; "iters"; "flips"; "warm";
           "wall ms"; "ms/iter"; "objective"; "verified";
         ]
       (List.rev !root_rows));
  ensure_results_dir ();
  let path = Filename.concat results_dir "BENCH_solver.json" in
  Report.Json.write_file path
    (Report.Json.Obj
       [
         ("widths", Report.Json.List (List.map (fun j -> Report.Json.Int j) widths));
         ("host_cores", Report.Json.Int cores);
         ("time_limit_s", Report.Json.Float time_limit);
         ("note", Report.Json.String note);
         ("per_tech", Report.Json.Obj (List.rev !per_tech));
         ("root_lp", Report.Json.Obj (List.rev !root_json));
         ("root_budget_s", Report.Json.Float root_budget);
       ]);
  Printf.printf "[solver bench written to %s]\n%!" path;
  if !mismatches > 0 then exit 1

(* Lagrangian decomposition at paper size: the exact solver proves a
   7x10-track 8-layer RULE1 clip in 5.4-55 s (2-core host), the
   sub-gradient mode routes it with a certified gap in a fraction of a
   second. Per tech: [OPTROUTER_BENCH_LAG_CLIPS] generated paper-size
   clips ([Extract.paper_params] windows over scaled aes/m0 designs,
   top-k by difficulty) solved under RULE1 at pricing widths 1/2/4 —
   solutions must be byte-identical across widths (exit 1 otherwise) —
   plus an exact cross-check on the bundled sample clips where the ILP
   optimum is provable, bounding the true optimality gap. *)
let section_lagrangian () =
  banner "lagrangian: paper-size decomposition (-j 1/2/4)";
  let widths = [ 1; 2; 4 ] in
  let cores = Domain.recommended_domain_count () in
  let n_clips = max 1 (env_int "OPTROUTER_BENCH_LAG_CLIPS" 20) in
  let iters = env_int "OPTROUTER_BENCH_LAG_ITERS" 40 in
  let rules = Rules.rule 1 in
  let mismatches = ref 0 in
  let table = ref [] in
  let per_tech = ref [] in
  let solution_bytes (sol : Route.solution) =
    String.concat "|"
      (Array.to_list
         (Array.map
            (fun (r : Route.net_route) ->
              Printf.sprintf "%d:%s" r.Route.net
                (String.concat ","
                   (List.map string_of_int
                      (List.sort Int.compare r.Route.edges))))
            sol.Route.routes))
  in
  let lag_solve jobs g =
    Lagrangian.solve
      ~params:(Lagrangian.make_params ~jobs ~max_iters:iters ~round_every:10 ())
      ~rules g
  in
  List.iter
    (fun tech ->
      let designs =
        List.concat_map
          (fun profile ->
            List.mapi
              (fun i util ->
                Design.generate ~seed:(42 + i)
                  (Experiments.scaled_profile
                     bench_params.Experiments.instance_scale profile)
                  ~util tech)
              [ 0.90; 0.95 ])
          [ Design.aes; Design.m0 ]
      in
      let windows =
        List.concat_map (Extract.windows (Extract.paper_params tech)) designs
      in
      let clips = List.map fst (Extract.top_k n_clips windows) in
      let graphs =
        List.map (fun clip -> (clip, Graph.build ~tech ~rules clip)) clips
      in
      let n = List.length clips in
      let baseline = ref [] in
      let runs =
        List.map
          (fun jobs ->
            let t0 = Unix.gettimeofday () in
            let feasible = ref 0 and busy = ref 0.0 in
            let gaps = ref [] in
            let bytes =
              List.map
                (fun ((clip : Clip.t), g) ->
                  let r = lag_solve jobs g in
                  busy := !busy +. r.Lagrangian.busy_s;
                  (match r.Lagrangian.gap with
                  | Some gap -> gaps := gap :: !gaps
                  | None -> ());
                  match r.Lagrangian.solution with
                  | Some sol ->
                    incr feasible;
                    (clip.Clip.c_name, solution_bytes sol)
                  | None -> (clip.Clip.c_name, "<none>"))
                graphs
            in
            let wall = Unix.gettimeofday () -. t0 in
            (match !baseline with
            | [] -> baseline := bytes
            | base ->
              List.iter2
                (fun (name, b1) (_, bj) ->
                  if b1 <> bj then begin
                    incr mismatches;
                    Printf.printf
                      "MISMATCH: %s at %d pricing workers diverges from -j 1\n"
                      name jobs
                  end)
                base bytes);
            let frate =
              if n = 0 then 0.0 else float_of_int !feasible /. float_of_int n
            in
            let gap_max = List.fold_left Float.max 0.0 !gaps in
            let gap_mean =
              match !gaps with
              | [] -> 0.0
              | gs ->
                List.fold_left ( +. ) 0.0 gs /. float_of_int (List.length gs)
            in
            table :=
              [
                tech.Tech.name;
                string_of_int jobs;
                string_of_int n;
                Printf.sprintf "%d/%d" !feasible n;
                Printf.sprintf "%.3f" gap_mean;
                Printf.sprintf "%.3f" gap_max;
                Printf.sprintf "%.3f" wall;
                Printf.sprintf "%.3f" !busy;
              ]
              :: !table;
            (jobs, wall, !busy, !feasible, frate, gap_mean, gap_max))
          widths
      in
      let wall1 =
        match runs with (_, w, _, _, _, _, _) :: _ -> w | [] -> 0.0
      in
      let runs_json =
        List.map
          (fun (jobs, wall, busy, feas, frate, gmean, gmax) ->
            Report.Json.Obj
              [
                ("workers", Report.Json.Int jobs);
                ("wall_s", Report.Json.Float wall);
                ("busy_s", Report.Json.Float busy);
                ("feasible", Report.Json.Int feas);
                ("feasibility_rate", Report.Json.Float frate);
                ("gap_mean", Report.Json.Float gmean);
                ("gap_max", Report.Json.Float gmax);
                ( "speedup_vs_serial",
                  Report.Json.Float (if wall > 0.0 then wall1 /. wall else 0.0)
                );
              ])
          runs
      in
      let dims =
        match clips with
        | c :: _ ->
          Printf.sprintf "%dx%d tracks, %d layers" c.Clip.cols c.Clip.rows
            c.Clip.layers
        | [] -> "no clips"
      in
      per_tech :=
        ( tech.Tech.name,
          Report.Json.Obj
            [
              ("clips", Report.Json.Int n);
              ("dims", Report.Json.String dims);
              ("runs", Report.Json.List runs_json);
            ] )
        :: !per_tech)
    Tech.all;
  print_string
    (Report.Table.render
       ~header:
         [
           "tech"; "workers"; "clips"; "feasible"; "gap mean"; "gap max";
           "wall s"; "busy s";
         ]
       (List.rev !table));
  (* Exact cross-check: on the bundled clips the ILP optimum is provable,
     so the decomposition's dual bound and rounded primal sandwich a known
     value — CI gates the true gap at 5%. *)
  banner "lagrangian: exact cross-check (bundled clips, RULE1)";
  let tech = Tech.n28_12t in
  let crosscheck = ref [] in
  let cross_gap_max = ref 0.0 in
  (match Clipfile.read_file "data/samples.clips" with
  | Error e -> Printf.printf "(samples.clips unavailable: %s)\n" e
  | Ok clips ->
    List.iter
      (fun (clip : Clip.t) ->
        match (Optrouter.route ~tech ~rules clip).Optrouter.verdict with
        | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _
          ->
          Printf.printf "%s: exact solve did not prove, skipped\n"
            clip.Clip.c_name
        | Optrouter.Routed exact ->
          let opt = exact.Route.metrics.cost in
          let g = Graph.build ~tech ~rules clip in
          let r = lag_solve 1 g in
          let primal =
            match r.Lagrangian.solution with
            | Some sol -> Some sol.Route.metrics.cost
            | None -> None
          in
          let gap_vs_exact =
            match primal with
            | Some p when p > 0 -> float_of_int (p - opt) /. float_of_int p
            | Some _ -> 0.0
            | None -> 1.0
          in
          cross_gap_max := Float.max !cross_gap_max gap_vs_exact;
          Printf.printf
            "%s: exact %d, lagrangian primal %s, dual >= %.0f, true gap %.4f\n"
            clip.Clip.c_name opt
            (match primal with Some p -> string_of_int p | None -> "-")
            r.Lagrangian.dual_bound gap_vs_exact;
          crosscheck :=
            Report.Json.Obj
              [
                ("clip", Report.Json.String clip.Clip.c_name);
                ("exact", Report.Json.Int opt);
                ( "primal",
                  match primal with
                  | Some p -> Report.Json.Int p
                  | None -> Report.Json.Null );
                ("dual_bound", Report.Json.Float r.Lagrangian.dual_bound);
                ("gap_vs_exact", Report.Json.Float gap_vs_exact);
              ]
            :: !crosscheck)
      clips);
  let note =
    let base =
      "speedup_vs_serial at 4 pricing workers is the headline number; \
       solutions are byte-identical across widths by construction."
    in
    host_note ~cores ~domains:(List.fold_left max 1 widths) ~noun:"pricing"
      base
  in
  Printf.printf "note: %s\n" note;
  ensure_results_dir ();
  let path = Filename.concat results_dir "BENCH_lagrangian.json" in
  Report.Json.write_file path
    (Report.Json.Obj
       [
         ( "widths",
           Report.Json.List (List.map (fun j -> Report.Json.Int j) widths) );
         ("host_cores", Report.Json.Int cores);
         ("max_iters", Report.Json.Int iters);
         ("clips_per_tech", Report.Json.Int n_clips);
         ("note", Report.Json.String note);
         ("paper_size", Report.Json.Obj (List.rev !per_tech));
         ( "exact_crosscheck",
           Report.Json.Obj
             [
               ("gap_vs_exact_max", Report.Json.Float !cross_gap_max);
               ("entries", Report.Json.List (List.rev !crosscheck));
             ] );
       ]);
  Printf.printf "[lagrangian bench written to %s]\n%!" path;
  if !mismatches > 0 then exit 1

(* Static model audit over the same difficult clips the sweep sections
   route: every (clip, applicable rule) formulation is built and audited,
   no ILP is solved. A nonzero error count fails the bench run — a
   formulation-coverage regression must not hide behind green timings. *)
let section_audit () =
  banner "audit: static formulation verification (no solving)";
  let t0 = Unix.gettimeofday () in
  let forms = ref 0 and errors = ref 0 and warnings = ref 0 in
  let per_tech =
    List.map
      (fun tech ->
        let clips = Experiments.difficult_clips ~params:bench_params tech in
        let rules = Experiments.rules_for tech in
        let tech_errors = ref 0 in
        List.iter
          (fun clip ->
            List.iter
              (fun (r : Rules.t) ->
                incr forms;
                let g = Graph.build ~tech ~rules:r clip in
                let form = Formulate.build ~rules:r g in
                let ds = Lp_audit.audit ~rules:r form in
                tech_errors := !tech_errors + Lp_audit.error_count ds;
                warnings :=
                  !warnings
                  + List.length (Lp_audit.by_severity Lp_audit.Warning ds);
                if Lp_audit.error_count ds > 0 then
                  Printf.printf "%s under %s:\n%s" clip.Clip.c_name
                    r.Rules.name
                    (Lp_audit.render (Lp_audit.by_severity Lp_audit.Error ds)))
              rules)
          clips;
        errors := !errors + !tech_errors;
        ( tech.Tech.name,
          Report.Json.Obj
            [
              ("clips", Report.Json.Int (List.length clips));
              ("rules", Report.Json.Int (List.length rules));
              ("errors", Report.Json.Int !tech_errors);
            ] ))
      Tech.all
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf "audited %d formulations: %d errors, %d warnings (%.1f s)\n"
    !forms !errors !warnings elapsed;
  ensure_results_dir ();
  let path = Filename.concat results_dir "BENCH_audit.json" in
  Report.Json.write_file path
    (Report.Json.Obj
       [
         ("formulations", Report.Json.Int !forms);
         ("errors", Report.Json.Int !errors);
         ("warnings", Report.Json.Int !warnings);
         ("elapsed_s", Report.Json.Float elapsed);
         ("per_tech", Report.Json.Obj per_tech);
       ]);
  Printf.printf "[audit report written to %s]\n%!" path;
  if !errors > 0 then exit 1

let sections =
  [
    ("table2", section_table2);
    ("table3", section_table3);
    ("fig7", section_fig7);
    ("fig8", section_fig8);
    ("fig9", section_fig9);
    ("fig10a", fun () -> fig10_for "a" Tech.n28_12t);
    ("fig10b", fun () -> fig10_for "b" Tech.n28_8t);
    ("fig10c", fun () -> fig10_for "c" Tech.n7_9t);
    ("audit", section_audit);
    ("ilpsize", section_ilpsize);
    ("validate", section_validate);
    ("runtime", section_runtime);
    ("ablation", section_ablation);
    ("solver", section_solver);
    ("lagrangian", section_lagrangian);
  ]

let parse_args argv =
  let bad_jobs flag v =
    Printf.eprintf "bad %s value %S (want a positive integer)\n" flag v;
    exit 1
  in
  let rec go jobs sjobs use_reuse acc = function
    | [] -> (jobs, sjobs, use_reuse, List.rev acc)
    | "--no-reuse" :: rest -> go jobs sjobs false acc rest
    | "-j" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> go n sjobs use_reuse acc rest
      | Some _ | None -> bad_jobs "-j" v)
    | [ "-j" ] -> bad_jobs "-j" ""
    | "--solver-jobs" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> go jobs n use_reuse acc rest
      | Some _ | None -> bad_jobs "--solver-jobs" v)
    | [ "--solver-jobs" ] -> bad_jobs "--solver-jobs" ""
    | arg :: rest when String.length arg > 2 && String.sub arg 0 2 = "-j" -> (
      let v = String.sub arg 2 (String.length arg - 2) in
      match int_of_string_opt v with
      | Some n when n >= 1 -> go n sjobs use_reuse acc rest
      | Some _ | None -> bad_jobs "-j" v)
    | arg :: rest -> go jobs sjobs use_reuse (arg :: acc) rest
  in
  go (Pool.env_jobs ()) (Pool.env_solver_jobs ()) true []
    (List.tl (Array.to_list argv))

let () =
  let jobs, sjobs, use_reuse, args = parse_args Sys.argv in
  reuse := use_reuse;
  jobs_used := jobs;
  solver_jobs := sjobs;
  let requested = match args with [] -> List.map fst sections | _ -> args in
  if jobs >= 2 then pool := Some (Pool.create ~domains:jobs);
  let finally () = Option.iter Pool.shutdown !pool in
  Fun.protect ~finally (fun () ->
      List.iter
        (fun name ->
          match List.assoc_opt name sections with
          | Some f ->
            let t0 = Unix.gettimeofday () in
            f ();
            Printf.printf "[section %s: %.1f s]\n%!" name
              (Unix.gettimeofday () -. t0)
          | None ->
            Printf.eprintf "unknown section %S; available: %s\n" name
              (String.concat " " (List.map fst sections));
            exit 1)
        requested;
      if !sweep_sections_run > 0 then write_sweep_json ())
