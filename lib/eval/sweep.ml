module Clip = Optrouter_grid.Clip
module Rules = Optrouter_tech.Rules
module Optrouter = Optrouter_core.Optrouter
module Route = Optrouter_grid.Route
module Pool = Optrouter_exec.Pool
module Log = Optrouter_report.Report.Log

type delta = Delta of int | Infeasible | Limit

let infeasible_delta = 500

let delta_value = function
  | Delta d -> float_of_int d
  | Infeasible | Limit -> float_of_int infeasible_delta

type entry = {
  clip_name : string;
  rule_name : string;
  delta : delta;
  cost : int option;
  base_cost : int;
}

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

type telemetry = {
  solves : int;
  fast_path_hits : int;
  seeded_incumbents : int;
  nodes : int;
  simplex_iterations : int;
  root_lp_iters : int;
  bound_flips : int;
  warm_reused : int;
  warm_repaired : int;
  warm_abandoned : int;
  busy_s : float;
  wall_s : float;
  limits : int;
  infeasible : int;
  failures : int;
  steals : int;
  solver_busy_s : float;
  solver_wall_s : float;
  peak_workers : int;
  lagrangian_solves : int;
  lag_iterations : int;
  lag_busy_s : float;
  lag_wall_s : float;
  lag_gap_max : float;
  lag_unrounded : int;
}

let empty_telemetry =
  {
    solves = 0;
    fast_path_hits = 0;
    seeded_incumbents = 0;
    nodes = 0;
    simplex_iterations = 0;
    root_lp_iters = 0;
    bound_flips = 0;
    warm_reused = 0;
    warm_repaired = 0;
    warm_abandoned = 0;
    busy_s = 0.0;
    wall_s = 0.0;
    limits = 0;
    infeasible = 0;
    failures = 0;
    steals = 0;
    solver_busy_s = 0.0;
    solver_wall_s = 0.0;
    peak_workers = 0;
    lagrangian_solves = 0;
    lag_iterations = 0;
    lag_busy_s = 0.0;
    lag_wall_s = 0.0;
    lag_gap_max = 0.0;
    lag_unrounded = 0;
  }

let merge_telemetry a b =
  {
    solves = a.solves + b.solves;
    fast_path_hits = a.fast_path_hits + b.fast_path_hits;
    seeded_incumbents = a.seeded_incumbents + b.seeded_incumbents;
    nodes = a.nodes + b.nodes;
    simplex_iterations = a.simplex_iterations + b.simplex_iterations;
    root_lp_iters = a.root_lp_iters + b.root_lp_iters;
    bound_flips = a.bound_flips + b.bound_flips;
    warm_reused = a.warm_reused + b.warm_reused;
    warm_repaired = a.warm_repaired + b.warm_repaired;
    warm_abandoned = a.warm_abandoned + b.warm_abandoned;
    busy_s = a.busy_s +. b.busy_s;
    (* Wall fields are spans, not work: shards merged here ran
       concurrently (or the caller wants an elapsed bound, not a total),
       so summing them over-reports elapsed time under -j N. Busy fields
       stay summed — aggregate work is additive; elapsed time is not. *)
    wall_s = Float.max a.wall_s b.wall_s;
    limits = a.limits + b.limits;
    infeasible = a.infeasible + b.infeasible;
    failures = a.failures + b.failures;
    steals = a.steals + b.steals;
    solver_busy_s = a.solver_busy_s +. b.solver_busy_s;
    solver_wall_s = Float.max a.solver_wall_s b.solver_wall_s;
    peak_workers = max a.peak_workers b.peak_workers;
    lagrangian_solves = a.lagrangian_solves + b.lagrangian_solves;
    lag_iterations = a.lag_iterations + b.lag_iterations;
    lag_busy_s = a.lag_busy_s +. b.lag_busy_s;
    (* Like [solver_wall_s]: a span, so max over shards, never a sum. *)
    lag_wall_s = Float.max a.lag_wall_s b.lag_wall_s;
    lag_gap_max = Float.max a.lag_gap_max b.lag_gap_max;
    lag_unrounded = a.lag_unrounded + b.lag_unrounded;
  }

let add_result t (result : Optrouter.result) =
  let s = result.Optrouter.stats in
  let limit, infeasible =
    match result.Optrouter.verdict with
    | Optrouter.Limit _ -> (1, 0)
    | Optrouter.Unroutable -> (0, 1)
    | Optrouter.Routed _ | Optrouter.Near_optimal _ -> (0, 0)
  in
  let fast, seeded =
    match s.Optrouter.seed_use with
    | Optrouter.Seed_fast_path -> (1, 0)
    | Optrouter.Seed_incumbent -> (0, 1)
    | Optrouter.Seed_unused | Optrouter.Seed_rejected -> (0, 0)
  in
  let reused, repaired, abandoned =
    match s.Optrouter.warm_start with
    | `Reused -> (1, 0, 0)
    | `Repaired -> (0, 1, 0)
    | `Abandoned -> (0, 0, 1)
    | `Cold -> (0, 0, 0)
  in
  {
    t with
    solves = t.solves + 1;
    fast_path_hits = t.fast_path_hits + fast;
    seeded_incumbents = t.seeded_incumbents + seeded;
    nodes = t.nodes + s.Optrouter.nodes;
    simplex_iterations = t.simplex_iterations + s.Optrouter.simplex_iterations;
    root_lp_iters = t.root_lp_iters + s.Optrouter.root_lp_iters;
    bound_flips = t.bound_flips + s.Optrouter.bound_flips;
    warm_reused = t.warm_reused + reused;
    warm_repaired = t.warm_repaired + repaired;
    warm_abandoned = t.warm_abandoned + abandoned;
    busy_s = t.busy_s +. s.Optrouter.elapsed_s;
    limits = t.limits + limit;
    infeasible = t.infeasible + infeasible;
    steals = t.steals + s.Optrouter.solver_steals;
    solver_busy_s = t.solver_busy_s +. s.Optrouter.solver_busy_s;
    solver_wall_s = t.solver_wall_s +. s.Optrouter.solver_wall_s;
    peak_workers = max t.peak_workers s.Optrouter.solver_workers;
    lagrangian_solves =
      (t.lagrangian_solves
      + match s.Optrouter.lagrangian with Some _ -> 1 | None -> 0);
    lag_iterations =
      (t.lag_iterations
      + match s.Optrouter.lagrangian with
        | Some ls -> ls.Optrouter.lag_iterations
        | None -> 0);
    lag_busy_s =
      (t.lag_busy_s
      +. match s.Optrouter.lagrangian with
         | Some ls -> ls.Optrouter.lag_busy_s
         | None -> 0.0);
    lag_wall_s =
      (t.lag_wall_s
      +. match s.Optrouter.lagrangian with
         | Some ls -> ls.Optrouter.lag_wall_s
         | None -> 0.0);
    lag_gap_max =
      (match s.Optrouter.lagrangian with
      | Some { Optrouter.lag_gap = Some g; _ } -> Float.max t.lag_gap_max g
      | Some { Optrouter.lag_gap = None; _ } | None -> t.lag_gap_max);
    lag_unrounded =
      (t.lag_unrounded
      + match s.Optrouter.lagrangian with
        | Some { Optrouter.primal_cost = None; _ } -> 1
        | Some { Optrouter.primal_cost = Some _; _ } | None -> 0);
  }

let add_outcome t = function
  | Ok result -> add_result t result
  | Error _ -> { t with solves = t.solves + 1; failures = t.failures + 1 }

let plural n = if n = 1 then "" else "s"

let render_telemetry t =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "solver telemetry: %d solves in %.1f s wall, %.1f s busy (%d B&B nodes, \
     %d simplex iterations)\n"
    t.solves t.wall_s t.busy_s t.nodes t.simplex_iterations;
  Printf.bprintf b
    "                  %d fast-path hit%s, %d seeded incumbent%s\n"
    t.fast_path_hits (plural t.fast_path_hits) t.seeded_incumbents
    (plural t.seeded_incumbents);
  Printf.bprintf b "                  %d limit, %d infeasible%s\n" t.limits
    t.infeasible
    (if t.failures > 0 then Printf.sprintf ", %d failed" t.failures else "");
  (* Root-LP line only when the solver actually reported root activity:
     historical three-line output is preserved for fast-path-only runs. *)
  if
    t.root_lp_iters > 0 || t.warm_reused > 0 || t.warm_repaired > 0
    || t.warm_abandoned > 0
  then
    Printf.bprintf b
      "                  root LP: %d iterations, %d bound flip%s, warm basis \
       %d reused / %d repaired%s\n"
      t.root_lp_iters t.bound_flips (plural t.bound_flips) t.warm_reused
      t.warm_repaired
      (if t.warm_abandoned > 0 then
         Printf.sprintf " / %d abandoned" t.warm_abandoned
       else "");
  (* Only solves that actually ran a parallel search earn the extra line;
     a purely serial sweep keeps its historical three-line form. *)
  if t.peak_workers > 1 || t.steals > 0 then begin
    let nodes_per_s =
      if t.solver_busy_s > 0.0 then float_of_int t.nodes /. t.solver_busy_s
      else 0.0
    in
    (* summed worker busy over (wall x width): 1.0 means every solver
       worker was busy for the whole of every solve *)
    let efficiency =
      if t.solver_wall_s > 0.0 && t.peak_workers > 0 then
        t.solver_busy_s /. (t.solver_wall_s *. float_of_int t.peak_workers)
      else 0.0
    in
    Printf.bprintf b
      "                  solver parallelism: peak %d workers, %d steal%s, \
       %.0f nodes/s, %.2f efficiency\n"
      t.peak_workers t.steals (plural t.steals) nodes_per_s efficiency
  end;
  (* Decomposition line only when some solve ran the Lagrangian path:
     exact-mode runs keep their historical output byte-for-byte. *)
  if t.lagrangian_solves > 0 then
    Printf.bprintf b
      "                  lagrangian: %d solve%s, %d iteration%s, %.1f s \
       pricing, max gap %.2f%%%s\n"
      t.lagrangian_solves (plural t.lagrangian_solves) t.lag_iterations
      (plural t.lag_iterations) t.lag_busy_s (100.0 *. t.lag_gap_max)
      (if t.lag_unrounded > 0 then
         Printf.sprintf ", %d unrounded" t.lag_unrounded
       else "");
  (* Diagnostics below the log level (maze reroute chatter, simplex
     progress, per-entry progress): surface the counts so a quiet run
     still shows how much went unreported. *)
  (match Log.counts () with
  | [] -> ()
  | counts ->
    Printf.bprintf b "                  suppressed diagnostics: %s\n"
      (String.concat ", "
         (List.map (fun (src, n) -> Printf.sprintf "%s=%d" src n) counts)));
  Buffer.contents b

(* True sweep wall clock, accumulated separately from the per-solve busy
   sum: under [-j N] the two diverge, and each tells a different story. *)
let timed telemetry f =
  match telemetry with
  | None -> f ()
  | Some t ->
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        t := { !t with wall_s = !t.wall_s +. (Unix.gettimeofday () -. t0) })
      f

(* ------------------------------------------------------------------ *)
(* Solving                                                             *)
(* ------------------------------------------------------------------ *)

let solve_outcome ~config ?seed ?warm_basis ~tech ~rules clip =
  try Ok (Optrouter.route ~config ?seed ?warm_basis ~tech ~rules clip)
  with e -> Error e

(* [config] with the branch-and-bound width that [Pool.solver_width]
   gives each of a fan-out of [tasks] solves over [pool]. *)
let fan_config pool ~tasks config =
  let milp = config.Optrouter.milp in
  let solver_jobs =
    Pool.solver_width pool ~tasks milp.Optrouter_ilp.Milp.solver_jobs
  in
  { config with Optrouter.milp = { milp with Optrouter_ilp.Milp.solver_jobs } }

(* A solve that dies (DRC audit failure, numerical trouble escaping the
   solver, ...) is folded into the [Limit] bucket: the sweep survives and
   the telemetry counts the failure; the collector logs it. Deltas are
   measured in the rules' objective ([Rules.objective_value]) so a
   via-objective sweep profiles via impact, not total cost; under the
   default wirelength objective this is exactly [cost - base_cost]. The
   nearest-integer rounding is exact for integral objectives. *)
let entry_for ~clip_name ~base_metrics (r : Rules.t) outcome =
  let obj (m : Route.metrics) =
    Rules.objective_value r.Rules.objective ~wirelength:m.Route.wirelength
      ~vias:m.Route.vias ~cost:m.Route.cost
  in
  let base_cost = base_metrics.Route.cost in
  let delta, cost =
    match outcome with
    | Ok result -> (
      match result.Optrouter.verdict with
      | Optrouter.Routed sol | Optrouter.Near_optimal sol ->
        ( Delta
            (Optrouter_geom.Round.nearest
               (obj sol.Route.metrics -. obj base_metrics)),
          Some sol.Route.metrics.cost )
      | Optrouter.Unroutable -> (Infeasible, None)
      | Optrouter.Limit (Some sol) -> (Limit, Some sol.Route.metrics.cost)
      | Optrouter.Limit None -> (Limit, None))
    | Error _ -> (Limit, None)
  in
  { clip_name; rule_name = r.Rules.name; delta; cost; base_cost }

let warn_failure clip_name rule_name = function
  | Ok _ -> ()
  | Error e ->
    Log.warn ~src:"sweep" (fun () ->
        Printf.sprintf "%s under %s: solve failed: %s" clip_name rule_name
          (Printexc.to_string e))

(* The sweep's progress line: one [info] event per finished entry. *)
let log_entry e =
  Log.info ~src:"sweep" (fun () ->
      Printf.sprintf "%s %s: %s" e.clip_name e.rule_name
        (match (e.delta, e.cost) with
        | Delta d, Some c -> Printf.sprintf "cost %d (dcost %d)" c d
        | Infeasible, _ -> "unroutable"
        | Limit, Some c -> Printf.sprintf "limit (incumbent %d)" c
        | (Delta _ | Limit), None -> "limit"))

let record telemetry outcome =
  match telemetry with Some t -> t := add_outcome !t outcome | None -> ()

(* The RULE1 baseline gets a triple budget: if it cannot be proved the
   whole clip is dropped, wasting every other solve. With no explicit
   config the tripling applies to [Optrouter.default_config] — an
   [Option.map] here once silently dropped the default 60 s budget's
   tripling on the [None] path. *)
let baseline_config config =
  let c = Option.value config ~default:Optrouter.default_config in
  {
    c with
    Optrouter.milp =
      {
        c.Optrouter.milp with
        Optrouter_ilp.Milp.time_limit_s =
          Option.map (fun t -> 3.0 *. t)
            c.Optrouter.milp.Optrouter_ilp.Milp.time_limit_s;
      };
  }

(* The proved-optimal baseline routing — and the name-keyed basis of its
   root relaxation — reused to seed and warm-start every rule solve of
   the clip. Unproved ([Limit]) baselines would poison every delta, so
   the clip is dropped either way. *)
let baseline_of ~baseline_name clip_name = function
  | Error e ->
    warn_failure clip_name baseline_name (Error e);
    None
  | Ok baseline -> (
    match baseline.Optrouter.verdict with
    | Optrouter.Unroutable | Optrouter.Limit None -> None
    | Optrouter.Limit (Some _) -> None
    (* A near-optimal baseline only ever occurs in Lagrangian-mode
       sweeps, where the seed is an incumbent, never a fast-path proof —
       so deltas are measured against the mode's own baseline and the
       unsound exact fast path can never see it. *)
    | Optrouter.Routed base | Optrouter.Near_optimal base ->
      Some (base, baseline.Optrouter.stats.Optrouter.root_basis))

let rule_entries ~config ~pool ?telemetry ?on_entry ~tech jobs =
  let config = fan_config pool ~tasks:(List.length jobs) config in
  let solve (clip, (base : Route.solution), warm_basis, r) =
    let outcome =
      solve_outcome ~config ~seed:base ?warm_basis ~tech ~rules:r clip
    in
    ( entry_for ~clip_name:clip.Clip.c_name ~base_metrics:base.Route.metrics r
        outcome,
      outcome )
  in
  (* Tasks never raise: a solve's exception is part of its outcome. *)
  let handle _i = function
    | Ok (entry, outcome) ->
      warn_failure entry.clip_name entry.rule_name outcome;
      log_entry entry;
      Option.iter (fun g -> g entry) on_entry
    | Error _ -> ()
  in
  let results = Pool.map pool ~on_done:handle solve jobs in
  (* Telemetry is folded in task order, after collection, so the floats
     sum deterministically no matter how the pool schedules. *)
  List.iter (fun (_, outcome) -> record telemetry outcome) results;
  List.map fst results

let sweep ?config ?(pool = Pool.create ~domains:1) ?telemetry ?on_entry
    ?(baseline = Rules.rule 1) ~tech ~rules clips =
  let config = Option.value config ~default:Optrouter.default_config in
  timed telemetry (fun () ->
      (* Two parallel phases instead of per-clip fan-out: first every
         clip's baseline (RULE1 unless overridden), then the full
         (clip x rule) cross product of the surviving clips — so even a
         handful of clips saturates the pool. Each rule job carries its
         clip's baseline routing as the solver seed. *)
      let bconfig =
        fan_config pool ~tasks:(List.length clips)
          (baseline_config (Some config))
      in
      let baselines =
        Pool.map pool
          (fun clip -> solve_outcome ~config:bconfig ~tech ~rules:baseline clip)
          clips
      in
      List.iter (record telemetry) baselines;
      let jobs =
        List.concat
          (List.map2
             (fun clip outcome ->
               match
                 baseline_of ~baseline_name:baseline.Rules.name
                   clip.Clip.c_name outcome
               with
               | None -> []
               | Some (base, warm) ->
                 List.map (fun r -> (clip, base, warm, r)) rules)
             clips baselines)
      in
      rule_entries ~config ~pool ?telemetry ?on_entry ~tech jobs)

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

let series entries =
  let by_rule = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun e ->
      if not (Hashtbl.mem by_rule e.rule_name) then order := e.rule_name :: !order;
      let old = Option.value ~default:[] (Hashtbl.find_opt by_rule e.rule_name) in
      Hashtbl.replace by_rule e.rule_name (delta_value e.delta :: old))
    entries;
  List.rev_map
    (fun name ->
      let values = Array.of_list (Hashtbl.find by_rule name) in
      Array.sort Float.compare values;
      (name, values))
    !order

let infeasible_counts entries =
  let by_rule = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun e ->
      if not (Hashtbl.mem by_rule e.rule_name) then order := e.rule_name :: !order;
      let old = Option.value ~default:0 (Hashtbl.find_opt by_rule e.rule_name) in
      let bump = match e.delta with Infeasible -> 1 | Delta _ | Limit -> 0 in
      Hashtbl.replace by_rule e.rule_name (old + bump))
    entries;
  List.rev_map (fun name -> (name, Hashtbl.find by_rule name)) !order
