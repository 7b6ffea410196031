module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Via_shape = Optrouter_tech.Via_shape
module Clip = Optrouter_grid.Clip
module Graph = Optrouter_grid.Graph
module Design = Optrouter_design.Design
module Cells = Optrouter_cells.Cells
module Extract = Optrouter_clips.Extract
module Pin_cost = Optrouter_clips.Pin_cost
module Formulate = Optrouter_core.Formulate
module Optrouter = Optrouter_core.Optrouter
module Route = Optrouter_grid.Route
module Maze = Optrouter_maze.Maze
module Milp = Optrouter_ilp.Milp
module Pool = Optrouter_exec.Pool

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2_header = [ "Tech."; "Design"; "Period (ns)"; "#inst."; "Util. (%)" ]

(* The paper's per-technology clock periods, instance-count ranges and
   utilisation ranges (Table 2). Mapped netlists differ per technology
   and per target utilisation, which the paper's instance ranges reflect;
   the generator is seeded per implementation version to land inside each
   range. *)
let table2_plan =
  [
    (Tech.n28_12t, Design.aes, 1.2, (13_500, 14_000), [ 0.89; 0.94 ]);
    (Tech.n28_12t, Design.m0, 2.2, (9_200, 9_200), [ 0.90; 0.96 ]);
    (Tech.n28_8t, Design.aes, 2.0, (12_000, 12_700), [ 0.89; 0.95 ]);
    (Tech.n28_8t, Design.m0, 2.5, (9_300, 9_500), [ 0.90; 0.95 ]);
    (Tech.n7_9t, Design.aes, 0.6, (13_000, 15_000), [ 0.93; 0.97 ]);
    (Tech.n7_9t, Design.m0, 1.2, (9_700, 11_400), [ 0.92; 0.95 ]);
  ]

let table2_rows ?(seed = 42) () =
  List.map
    (fun (tech, profile, period, (lo_count, hi_count), utils) ->
      let versions = List.length utils in
      let counts =
        List.mapi
          (fun i util ->
            let instance_count =
              if versions <= 1 then lo_count
              else lo_count + ((hi_count - lo_count) * i / (versions - 1))
            in
            let profile = { profile with Design.instance_count } in
            let d = Design.generate ~seed:(seed + i) profile ~util tech in
            (Array.length d.Design.instances, d.Design.achieved_util))
          utils
      in
      let insts = List.map fst counts in
      let lo_i = List.fold_left min max_int insts
      and hi_i = List.fold_left max 0 insts in
      let us = List.map snd counts in
      let lo_u = List.fold_left Float.min 1.0 us
      and hi_u = List.fold_left Float.max 0.0 us in
      [
        tech.Tech.name;
        profile.Design.pr_name;
        Printf.sprintf "%.1f" period;
        (if lo_i = hi_i then Printf.sprintf "%d" lo_i
         else Printf.sprintf "%d-%d" lo_i hi_i);
        Printf.sprintf "%.0f-%.0f" (lo_u *. 100.0) (hi_u *. 100.0);
      ])
    table2_plan

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

let table3_header = [ "Name"; "SADP rules"; "Blocked via sites"; "DSA vias" ]

let table3_rows () =
  List.map
    (fun (r : Rules.t) ->
      let sadp =
        match r.Rules.sadp_from with
        | None -> "No SADP"
        | Some m -> Printf.sprintf "SADP >= M%d" m
      in
      let blocked =
        match r.Rules.via_restriction with
        | Rules.No_blocking -> "0 neighbors blocked"
        | Rules.Orthogonal -> "4 neighbors blocked"
        | Rules.Orthogonal_diagonal -> "8 neighbors blocked"
      in
      let dsa = if r.Rules.dsa then "k-colorable" else "-" in
      [ r.Rules.name; sadp; blocked; dsa ])
    Rules.all

(* ------------------------------------------------------------------ *)
(* Figure 8                                                            *)
(* ------------------------------------------------------------------ *)

type fig8_series = { label : string; top_costs : float array }

let fig8 ?(seed = 42) ?(top = 100) () =
  let tech = Tech.n7_9t in
  let versions =
    [
      (Design.aes, [ 0.93; 0.95; 0.97 ]);
      (Design.m0, [ 0.92; 0.94; 0.95 ]);
    ]
  in
  List.concat_map
    (fun (profile, utils) ->
      List.mapi
        (fun i util ->
          let d = Design.generate ~seed:(seed + i) profile ~util tech in
          let params = Extract.paper_params tech in
          let clips = Extract.windows params d in
          let ranked = Extract.top_k top clips in
          let costs = Array.of_list (List.map snd ranked) in
          {
            label =
              Printf.sprintf "%s_v%d (util %.0f%%)" profile.Design.pr_name
                (i + 1) (util *. 100.0);
            top_costs = costs;
          })
        utils)
    versions

(* ------------------------------------------------------------------ *)
(* Figure 10                                                           *)
(* ------------------------------------------------------------------ *)

type fig10_params = {
  seed : int;
  instance_scale : float;
  utils : float list;
  extract : Extract.params;
  top_clips : int;
  time_limit_s : float;
  reuse : bool;
  solver_jobs : int;
  solve_mode : Optrouter.solve_mode;
  objective : Rules.objective;
}

let default_fig10_params =
  {
    seed = 42;
    instance_scale = 0.03;
    utils = [ 0.90; 0.95 ];
    extract = Extract.reduced_params;
    top_clips = 8;
    time_limit_s = 20.0;
    reuse = true;
    solver_jobs = 1;
    solve_mode = Optrouter.Exact;
    objective = Rules.Wirelength;
  }

let scaled_profile scale (p : Design.profile) =
  {
    p with
    Design.instance_count =
      max 60
        (Optrouter_geom.Round.floor
           (float_of_int p.Design.instance_count *. scale));
  }

let difficult_clips ?(params = default_fig10_params) tech =
  let designs =
    List.concat_map
      (fun profile ->
        List.mapi
          (fun i util ->
            Design.generate ~seed:(params.seed + i)
              (scaled_profile params.instance_scale profile)
              ~util tech)
          params.utils)
      [ Design.aes; Design.m0 ]
  in
  let clips = List.concat_map (Extract.windows params.extract) designs in
  List.map fst (Extract.top_k params.top_clips clips)

let rules_for tech =
  List.filter
    (fun (r : Rules.t) ->
      r.Rules.name <> "RULE1" && Rules.applicable ~tech_name:tech.Tech.name r)
    Rules.all

let solver_config params =
  Optrouter.make_config
    ~milp:
      (Milp.make_params ~max_nodes:50_000 ~time_limit_s:params.time_limit_s
         ~solver_jobs:params.solver_jobs ())
    ~solve_mode:params.solve_mode ~seed_reuse:params.reuse ()

let fig10 ?(params = default_fig10_params) ?pool ?telemetry tech =
  let clips = difficult_clips ~params tech in
  (* The whole sweep — baseline included — runs under the requested
     objective: the zero-Δ fast path is only sound when the baseline and
     the rule solve optimise the same thing. *)
  let rules =
    List.map (Rules.with_objective params.objective) (rules_for tech)
  in
  let baseline = Rules.with_objective params.objective (Rules.rule 1) in
  let config = solver_config params in
  Sweep.sweep ~config ?pool ?telemetry ~baseline ~tech ~rules clips

(* ------------------------------------------------------------------ *)
(* ILP size analysis                                                   *)
(* ------------------------------------------------------------------ *)

let ilp_size_header =
  [ "Variant"; "|V|"; "|A|"; "|N|"; "vars"; "binaries"; "rows"; "nonzeros" ]

(* A deterministic representative clip: 5x5 tracks, 4 layers, 4 nets. *)
let representative_clip =
  let pin name access = { Clip.p_name = name; access; shape = None } in
  let two name p1 p2 =
    { Clip.n_name = name; pins = [ pin (name ^ "s") [ p1 ]; pin (name ^ "t") [ p2 ] ] }
  in
  let three name p1 p2 p3 =
    {
      Clip.n_name = name;
      pins = [ pin (name ^ "s") [ p1 ]; pin (name ^ "t1") [ p2 ]; pin (name ^ "t2") [ p3 ] ];
    }
  in
  Clip.make ~name:"representative" ~cols:5 ~rows:5 ~layers:4
    [
      three "n0" (0, 0) (4, 0) (2, 3);
      two "n1" (0, 2) (4, 2);
      two "n2" (1, 4) (3, 1);
      two "n3" (0, 4) (4, 4);
    ]

let ilp_size_rows () =
  let tech = Tech.n28_12t in
  let variants =
    [
      ("no restriction (RULE1)", Rules.rule 1, Formulate.default_options, []);
      ("via restriction (RULE6)", Rules.rule 6, Formulate.default_options, []);
      ("SADP, collapsed p (RULE2)", Rules.rule 2, Formulate.default_options, []);
      ( "SADP, paper aux vars (RULE2)",
        Rules.rule 2,
        { Formulate.default_options with sadp_aux_vars = true },
        [] );
      ( "via shapes (2x1 bar)",
        Rules.rule 1,
        Formulate.default_options,
        [ Via_shape.bar_2x1 ~cost:4 ] );
    ]
  in
  List.map
    (fun (label, rules, options, via_shapes) ->
      let g = Graph.build ~via_shapes ~tech ~rules representative_clip in
      let form = Formulate.build ~options ~rules g in
      let s = Formulate.sizes form in
      [
        label;
        string_of_int g.Graph.nverts;
        string_of_int (2 * Graph.num_edges g);
        string_of_int (Graph.num_nets g);
        string_of_int s.Formulate.vars;
        string_of_int s.Formulate.binaries;
        string_of_int s.Formulate.rows;
        string_of_int s.Formulate.nonzeros;
      ])
    variants

(* ------------------------------------------------------------------ *)
(* Footnote 6: validation against the heuristic baseline               *)
(* ------------------------------------------------------------------ *)

type validation = {
  v_clip : string;
  opt_cost : int option;
  baseline_cost : int option;
}

let validate ?(params = default_fig10_params) ?(pool = Pool.create ~domains:1)
    tech =
  let clips = difficult_clips ~params tech in
  let rules = Rules.rule 1 in
  let solver_jobs =
    Pool.solver_width pool ~tasks:(List.length clips) params.solver_jobs
  in
  let config = solver_config { params with solver_jobs } in
  let check clip =
    let g = Graph.build ~tech ~rules clip in
    let opt = Optrouter.route_graph ~config ~rules g in
    let baseline = Maze.route ~rules g in
    {
      v_clip = clip.Clip.c_name;
      opt_cost = Optrouter.cost_of opt;
      baseline_cost =
        Option.map
          (fun (s : Route.solution) -> s.Route.metrics.cost)
          baseline.Maze.solution;
    }
  in
  Pool.map pool check clips

(* ------------------------------------------------------------------ *)
(* Section 5 runtime study                                             *)
(* ------------------------------------------------------------------ *)

let runtime ?(params = default_fig10_params) () =
  let tech = Tech.n28_12t in
  let sizes =
    [
      ("5x5 tracks, 4 layers", Extract.reduced_params);
      ( "7x7 tracks, 4 layers",
        { Extract.reduced_params with Extract.window_cols = 7; window_rows = 7 } );
    ]
  in
  List.map
    (fun (label, extract) ->
      let params = { params with extract; top_clips = 3 } in
      let clips = difficult_clips ~params tech in
      let config = solver_config params in
      let mean rules =
        let times =
          List.map
            (fun clip ->
              (Optrouter.route ~config ~tech ~rules clip).Optrouter.stats
                .Optrouter.elapsed_s)
            clips
        in
        match times with
        | [] -> 0.0
        | _ ->
          List.fold_left ( +. ) 0.0 times /. float_of_int (List.length times)
      in
      (* "with rules" = SADP >= M3 plus 4-neighbour via blocking (RULE8),
         "without" = RULE1, as in the paper's Section 5 comparison. *)
      (label, mean (Rules.rule 1), mean (Rules.rule 8)))
    sizes
