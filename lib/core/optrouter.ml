module Drc = Optrouter_grid.Drc
module Route = Optrouter_grid.Route
module Graph = Optrouter_grid.Graph
module Clip = Optrouter_grid.Clip
module Rules = Optrouter_tech.Rules
module Tech = Optrouter_tech.Tech
module Via_shape = Optrouter_tech.Via_shape
module Milp = Optrouter_ilp.Milp
module Simplex = Optrouter_ilp.Simplex
module Lagrangian = Optrouter_lagrangian.Lagrangian
module Log = Optrouter_report.Report.Log

type seed_use =
  | Seed_unused
  | Seed_fast_path
  | Seed_incumbent
  | Seed_rejected

type solve_mode = Exact | Lagrangian

type lagrangian_stats = {
  lag_iterations : int;
  dual_bound : float;
  primal_cost : int option;
  lag_gap : float option;
  lag_busy_s : float;
  lag_wall_s : float;
  lag_rounds : int;
  lag_rip_ups : int;
}

type stats = {
  sizes : Formulate.sizes;
  nodes : int;
  simplex_iterations : int;
  root_lp_iters : int;
  bound_flips : int;
  warm_start : Simplex.warm;
  root_basis : (string * Simplex.vstat) list option;
  elapsed_s : float;
  seed_use : seed_use;
  solver_workers : int;
  solver_steals : int;
  solver_busy_s : float;
  solver_wall_s : float;
  lagrangian : lagrangian_stats option;
}

type verdict =
  | Routed of Route.solution
  | Unroutable
  | Limit of Route.solution option
  | Near_optimal of Route.solution

type result = { verdict : verdict; stats : stats }

type config = {
  options : Formulate.options;
  via_shapes : Via_shape.t list;
  single_vias : bool;
  bidirectional : bool;
  milp : Milp.params;
  solve_mode : solve_mode;
  heuristic_incumbent : bool;
  seed_reuse : bool;
  audit : (rules:Rules.t -> Formulate.t -> unit) option;
}

let default_config =
  {
    options = Formulate.default_options;
    via_shapes = [];
    single_vias = true;
    bidirectional = false;
    milp = Milp.make_params ~max_nodes:20_000 ~time_limit_s:60.0 ();
    solve_mode = Exact;
    heuristic_incumbent = true;
    seed_reuse = true;
    audit = None;
  }

let make_config ?(options = default_config.options)
    ?(via_shapes = default_config.via_shapes)
    ?(single_vias = default_config.single_vias)
    ?(bidirectional = default_config.bidirectional)
    ?(milp = default_config.milp) ?(solve_mode = default_config.solve_mode)
    ?(heuristic_incumbent = default_config.heuristic_incumbent)
    ?(seed_reuse = default_config.seed_reuse) ?audit () =
  {
    options;
    via_shapes;
    single_vias;
    bidirectional;
    milp;
    solve_mode;
    heuristic_incumbent;
    seed_reuse;
    audit;
  }

(* Canonical text of the result-relevant configuration subset, for
   content-addressed cache keys. Includes exactly the fields that change
   which routings are feasible or what they cost: formulation options,
   the via-shape menu, single_vias, bidirectional, and the MILP
   integrality tolerance. Deliberately excludes effort-only knobs —
   time/node limits, solver_jobs, refactorisation, heuristic_incumbent,
   seed_reuse, audit — which change how fast a proven answer arrives,
   never the answer itself (only *proven* results may be cached under a
   key built from this). [solve_mode] IS included:
   Lagrangian results are near-optimal rather than proven, so the two
   modes must never share a cache entry. Fixed order and spelling:
   part of the serve cache's key format, versioned there. *)
let config_fingerprint c =
  let b = Buffer.create 128 in
  (* Vertex exclusivity is always on; its spelling stays in the key so
     that existing serve cache entries keep their keys. *)
  Buffer.add_string b
    (Printf.sprintf
       "options:vertex_exclusivity=true;sadp_aux_vars=%b;aggregated_flows=%b\n"
       c.options.Formulate.sadp_aux_vars c.options.Formulate.aggregated_flows);
  List.iter
    (fun (v : Via_shape.t) ->
      Buffer.add_string b
        (Printf.sprintf "via_shape:name=%s;width=%d;height=%d;cost=%d\n"
           v.Via_shape.name v.Via_shape.width v.Via_shape.height
           v.Via_shape.cost))
    c.via_shapes;
  Buffer.add_string b
    (Printf.sprintf "single_vias=%b;bidirectional=%b\n" c.single_vias
       c.bidirectional);
  Buffer.add_string b
    (Printf.sprintf "milp:integrality_tol=%.17g\n"
       c.milp.Milp.integrality_tol);
  Buffer.add_string b
    (Printf.sprintf "solve_mode=%s\n"
       (match c.solve_mode with Exact -> "exact" | Lagrangian -> "lagrangian"));
  Buffer.contents b

exception Drc_failure of string

let audit ~rules g sol =
  match Drc.check ~rules g sol with
  | [] -> ()
  | v :: _ as all ->
    let msg =
      Format.asprintf "%d violation(s), first: %a" (List.length all)
        (Drc.pp_violation g) v
    in
    raise (Drc_failure msg)

(* Stats of a solve that ran no branch and bound: the fast path builds no
   formulation, and Lagrangian mode reports its pricing under
   [lagrangian] only. Callers fill in [elapsed_s], [seed_use] and
   [lagrangian]. *)
let no_search =
  {
    sizes = { Formulate.vars = 0; binaries = 0; rows = 0; nonzeros = 0 };
    nodes = 0;
    simplex_iterations = 0;
    root_lp_iters = 0;
    bound_flips = 0;
    warm_start = `Cold;
    root_basis = None;
    elapsed_s = 0.0;
    seed_use = Seed_unused;
    solver_workers = 0;
    solver_steals = 0;
    solver_busy_s = 0.0;
    solver_wall_s = 0.0;
    lagrangian = None;
  }

(* Soundness of the zero-Δ fast path: [seed] must be an optimal routing
   under a rule configuration whose feasible set CONTAINS this one (in the
   sweep, the RULE1 baseline — every RULEk only adds constraints). A clean
   DRC check then proves the seed is RULEk-feasible, so
   cost(RULEk) <= cost(seed) = cost(relaxation) <= cost(RULEk): the seed is
   optimal here too and no ILP is needed. A solution from a foreign graph
   can only pass the check by actually being a clean routing of this graph's
   nets, so a raised or failed check simply falls through to the ILP. *)
let fast_path ~rules g (sol : Route.solution) =
  match Drc.check ~rules g sol with
  | [] ->
    let metrics = Route.metrics_of g sol.Route.routes in
    Some { Route.routes = sol.Route.routes; metrics }
  | _ :: _ -> None
  (* Named binder, not [_]: the swallow is deliberate (a seed from a
     foreign graph may make Drc.check raise anything) and the source lint
     (L003) insists it stays greppable. *)
  | exception _foreign_seed_exn -> None

(* The decomposition path. The exact fast path is unsound here: a seed
   is a baseline that may itself be near-optimal rather than optimal, so
   it only ever serves as the initial incumbent (upper bound). The only
   proven verdict this mode emits is [Unroutable] by plain graph
   reachability; a feasible routing comes back as [Near_optimal] with
   the dual bound and gap in [stats.lagrangian]. *)
let route_lagrangian ~config ?seed ~rules (g : Graph.t) ~start =
  let params =
    Lagrangian.make_params ~time_limit_s:config.milp.Milp.time_limit_s ()
  in
  let r = Lagrangian.solve ~params ?seed ~rules g in
  let verdict =
    if r.Lagrangian.unreachable then Unroutable
    else
      match r.Lagrangian.solution with
      | Some sol -> Near_optimal sol
      | None -> Limit None
  in
  let seed_use =
    match seed with
    | None -> Seed_unused
    | Some _ -> if r.Lagrangian.seeded then Seed_incumbent else Seed_rejected
  in
  let stats =
    {
      no_search with
      elapsed_s = Unix.gettimeofday () -. start;
      seed_use;
      lagrangian =
        Some
          {
            lag_iterations = r.Lagrangian.iterations;
            dual_bound = r.Lagrangian.dual_bound;
            primal_cost =
              Option.map
                (fun (s : Route.solution) -> s.Route.metrics.cost)
                r.Lagrangian.solution;
            lag_gap = r.Lagrangian.gap;
            lag_busy_s = r.Lagrangian.busy_s;
            lag_wall_s = r.Lagrangian.wall_s;
            lag_rounds = r.Lagrangian.rounding_attempts;
            lag_rip_ups = r.Lagrangian.rip_ups;
          };
    }
  in
  { verdict; stats }

let route_graph ?(config = default_config) ?seed ?warm_basis ~rules
    (g : Graph.t) =
  let start = Unix.gettimeofday () in
  let seed = if config.seed_reuse then seed else None in
  let warm_basis = if config.seed_reuse then warm_basis else None in
  match config.solve_mode with
  | Lagrangian -> route_lagrangian ~config ?seed ~rules g ~start
  | Exact -> (
  match Option.bind seed (fast_path ~rules g) with
  | Some sol ->
    Log.debug ~src:"core" (fun () ->
        Printf.sprintf "seed clean under %s: fast path, cost=%d"
          rules.Rules.name sol.Route.metrics.cost);
    let stats =
      {
        no_search with
        elapsed_s = Unix.gettimeofday () -. start;
        seed_use = Seed_fast_path;
      }
    in
    { verdict = Routed sol; stats }
  | None ->
  let form = Formulate.build ~options:config.options ~rules g in
  Option.iter (fun f -> f ~rules form) config.audit;
  (* A known-good routing lifted to an LP point seeds branch and bound with
     an incumbent; the LP bound then prunes most of the tree immediately.
     Preference order: the caller's seed (a baseline routing that just
     failed the fast-path check rarely encodes, but when it does it is
     free), then a quick heuristic routing. [Formulate.encode] re-validates
     the point, so an unlucky candidate can never corrupt the search. *)
  let seeded = Option.bind seed (Formulate.encode form) in
  let seed_use =
    match (seed, seeded) with
    | None, _ -> Seed_unused
    | Some _, Some _ -> Seed_incumbent
    | Some _, None -> Seed_rejected
  in
  let initial =
    match seeded with
    | Some _ -> seeded
    | None when not config.heuristic_incumbent -> None
    | None -> begin
      let params =
        {
          Optrouter_maze.Maze.default_params with
          Optrouter_maze.Maze.restarts = 10;
          rip_up_rounds = 8;
        }
      in
      match
        (Optrouter_maze.Maze.route ~params ~rules g).Optrouter_maze.Maze.solution
      with
      | Some sol -> Formulate.encode form sol
      | None -> None
    end
  in
  let lp = Formulate.lp form in
  (* A name-keyed basis from a related solve (the sweep's RULE1 baseline)
     is remapped onto this LP's columns; the simplex reports whether it
     actually reused it, and a remap that had to patch structural
     differences downgrades [`Reused] to [`Repaired]. *)
  let root_basis, remap_patched =
    match warm_basis with
    | None -> (None, false)
    | Some assoc ->
      let b, fixup = Simplex.Basis.of_assoc lp assoc in
      (Some b, fixup = `Patched)
  in
  let milp_result = Milp.solve ?initial ?root_basis ~params:config.milp lp in
  let elapsed_s = Unix.gettimeofday () -. start in
  let warm_start =
    match milp_result.Milp.root_warm with
    | `Reused when remap_patched -> `Repaired
    | w -> w
  in
  let stats =
    {
      sizes = Formulate.sizes form;
      nodes = milp_result.Milp.nodes;
      simplex_iterations = milp_result.Milp.simplex_iterations;
      root_lp_iters = milp_result.Milp.root_lp_iters;
      bound_flips = milp_result.Milp.root_bound_flips;
      warm_start;
      root_basis =
        Option.map (Simplex.Basis.to_assoc lp) milp_result.Milp.root_basis;
      elapsed_s;
      seed_use;
      solver_workers = milp_result.Milp.workers;
      solver_steals = milp_result.Milp.steals;
      solver_busy_s = milp_result.Milp.solver_busy_s;
      solver_wall_s = milp_result.Milp.solver_wall_s;
      lagrangian = None;
    }
  in
  let decode () =
    let sol = Formulate.decode form milp_result.Milp.x in
    audit ~rules g sol;
    sol
  in
  let verdict =
    match milp_result.Milp.outcome with
    | Milp.Proved_optimal ->
      let sol = decode () in
      Log.debug ~src:"core" (fun () ->
          Printf.sprintf "routed: cost=%d nodes=%d" sol.Route.metrics.cost
            milp_result.Milp.nodes);
      Routed sol
    | Milp.Infeasible -> Unroutable
    | Milp.Feasible -> Limit (Some (decode ()))
    | Milp.Unknown -> Limit None
    | Milp.Unbounded ->
      (* all variables are bounded, so this cannot happen *)
      assert false
  in
  { verdict; stats })

let route ?(config = default_config) ?seed ?warm_basis ~tech ~rules clip =
  let g =
    Graph.build ~via_shapes:config.via_shapes ~single_vias:config.single_vias
      ~bidirectional:config.bidirectional ~tech ~rules clip
  in
  route_graph ~config ?seed ?warm_basis ~rules g

let cost_of result =
  match result.verdict with
  | Routed sol | Limit (Some sol) | Near_optimal sol ->
    Some sol.Route.metrics.cost
  | Unroutable | Limit None -> None
