(** OptRouter: cost-optimal, design-rule-correct switchbox routing.

    The end-to-end driver of the paper's Figure 6 inner loop: elaborate a
    clip into a routing graph under a rule configuration, build the ILP,
    solve it with branch and bound, decode the optimal routing and verify
    it with the independent DRC checker.

    Routing cost is [wirelength + via_weight * #vias] (the paper uses
    via_weight = 4, carried by the technology preset). *)

(** Which solve engine {!route} / {!route_graph} runs.

    [Exact] is the paper's path: build the full ILP and prove the optimum
    with branch and bound. [Lagrangian] dualises the shared capacity rows
    and runs the sub-gradient decomposition of
    {!Optrouter_lagrangian.Lagrangian}: per-net subproblems priced one
    after another, a valid dual (lower) bound, and a DRC-certified feasible
    routing obtained by rounding — {e near-optimal}, never proven, with
    the bound and gap reported in [stats.lagrangian]. It is the fast
    mode, not the only one for paper-size 7×10×8 clips: the exact path
    proved 10 sampled RULE1 paper-size clips in 5.4–55 s each on a
    2-core host. Lagrangian mode proves infeasibility only by
    reachability; under RULE8, where the exact path proves sampled
    paper-size clips unroutable in 12–18 s, it returns [Limit None]. *)
type solve_mode = Exact | Lagrangian

(** Decomposition-mode counters, present iff the solve ran with
    [solve_mode = Lagrangian]. *)
type lagrangian_stats = {
  lag_iterations : int;  (** sub-gradient iterations run *)
  dual_bound : float;
      (** integral-lifted lower bound on the ILP optimum (0 when no
          iteration completed) *)
  primal_cost : int option;  (** cost of the returned routing, if any *)
  lag_gap : float option;
      (** (primal - dual_bound) / primal; [None] without a feasible
          routing *)
  lag_busy_s : float;  (** pricing time summed over the iterations *)
  lag_wall_s : float;  (** wall clock of the decomposition solve alone *)
  lag_rounds : int;  (** rounding attempts *)
  lag_rip_ups : int;  (** nets ripped up across repair rounds *)
}

(** How a [?seed] routing was exploited by a solve. *)
type seed_use =
  | Seed_unused  (** no seed given, or [seed_reuse] disabled *)
  | Seed_fast_path
      (** seed passed the DRC check under these rules: returned as the
          proven optimum without building or solving any ILP *)
  | Seed_incumbent
      (** seed encoded onto this formulation and handed to branch and
          bound as the starting incumbent; in Lagrangian mode, seed
          DRC-clean under these rules and taken as the initial incumbent *)
  | Seed_rejected
      (** seed violates these rules and could not be encoded (Lagrangian
          mode: failed the DRC check); the solve fell back to the
          heuristic incumbent *)

type stats = {
  sizes : Formulate.sizes;
      (** all zero for a {!Seed_fast_path} solve — no ILP was built *)
  nodes : int;  (** branch-and-bound nodes *)
  simplex_iterations : int;
  root_lp_iters : int;
      (** simplex iterations of the root-relaxation solve alone *)
  bound_flips : int;  (** bound-flip ratio-test steps of the root solve *)
  warm_start : Optrouter_ilp.Simplex.warm;
      (** whether the [?warm_basis] was reused by the root solve:
          [`Cold] (none given), [`Reused] (applied as-is), [`Repaired]
          (name remap or factorisation had to patch it) or [`Abandoned]
          (given, but the root solve restarted from the all-slack basis;
          see {!Optrouter_ilp.Simplex.warm}) *)
  root_basis : (string * Optrouter_ilp.Simplex.vstat) list option;
      (** name-keyed optimal basis of the root relaxation, for reuse as
          [?warm_basis] on a related solve; [None] when the root LP did
          not finish, or on fast-path solves *)
  elapsed_s : float;  (** wall-clock seconds (valid under domain parallelism) *)
  seed_use : seed_use;
  solver_workers : int;
      (** parallel width of the branch-and-bound search; 0 for fast-path
          and Lagrangian-mode solves (no search ran at all; pricing is
          reported under [lagrangian]) *)
  solver_steals : int;  (** cross-worker frontier steals inside the solve *)
  solver_busy_s : float;
      (** summed per-worker node-processing time of the solve; 0 when no
          search ran *)
  solver_wall_s : float;
      (** wall clock of the MILP solve alone; 0 when no search ran *)
  lagrangian : lagrangian_stats option;
      (** decomposition counters; [Some] iff [solve_mode = Lagrangian] *)
}

type verdict =
  | Routed of Optrouter_grid.Route.solution  (** proved optimal *)
  | Unroutable  (** the ILP is infeasible under this rule configuration *)
  | Limit of Optrouter_grid.Route.solution option
      (** node/time limit hit; holds the incumbent if one was found *)
  | Near_optimal of Optrouter_grid.Route.solution
      (** Lagrangian mode: DRC-certified feasible routing with a valid
          dual bound ([stats.lagrangian]), but {e no} optimality proof *)

type result = { verdict : verdict; stats : stats }

type config = {
  options : Formulate.options;
  via_shapes : Optrouter_tech.Via_shape.t list;
  single_vias : bool;
  bidirectional : bool;
  milp : Optrouter_ilp.Milp.params;
  solve_mode : solve_mode;
      (** [Lagrangian] runs {!Optrouter_lagrangian.Lagrangian.default_params}
          with [time_limit_s] taken from [milp.time_limit_s], so both modes
          share one deadline; pricing is serial, so [milp.solver_jobs] (the
          branch-and-bound width) has no effect on it *)
  heuristic_incumbent : bool;
      (** seed branch and bound with a quick {!Optrouter_maze.Maze} routing
          lifted through {!Formulate.encode}; default [true]. Optimality is
          unaffected (the point is re-validated), only solve time. *)
  seed_reuse : bool;
      (** honour the [?seed] argument of {!route} / {!route_graph};
          default [true]. When [false], seeds are ignored entirely — the
          escape hatch behind the sweep's [--no-reuse] flag, useful to
          verify that reuse changes solve effort but never results. *)
  audit : (rules:Optrouter_tech.Rules.t -> Formulate.t -> unit) option;
      (** invoked on every formulation right after {!Formulate.build},
          before any solving; default [None]. The model auditor
          ([Optrouter_analysis.Lp_audit.hook]) plugs in here — as a
          callback so the core stays free of a dependency on the analysis
          subsystem. Raise from the callback to abort the solve. Fast-path
          solves build no formulation and are not audited. *)
}

val default_config : config

(** [make_config ()] is {!default_config}; each argument overrides one
    field. Prefer this over record literals at call sites so future
    configuration fields are non-breaking. *)
val make_config :
  ?options:Formulate.options ->
  ?via_shapes:Optrouter_tech.Via_shape.t list ->
  ?single_vias:bool ->
  ?bidirectional:bool ->
  ?milp:Optrouter_ilp.Milp.params ->
  ?solve_mode:solve_mode ->
  ?heuristic_incumbent:bool ->
  ?seed_reuse:bool ->
  ?audit:(rules:Optrouter_tech.Rules.t -> Formulate.t -> unit) ->
  unit ->
  config

(** Canonical text of the configuration subset that determines routing
    {e results} (formulation options, via-shape menu, [single_vias],
    [bidirectional], the MILP integrality tolerance) — the params
    component of content-addressed cache keys. Effort-only knobs
    (limits, parallel widths, the simplex refactorisation policy,
    [heuristic_incumbent], [seed_reuse], [audit]) are deliberately
    excluded: they change how fast a proven answer arrives, never the
    answer, so configs differing only in effort share cache entries.
    [solve_mode] {e is} included — Lagrangian answers are near-optimal,
    not proven, so the modes must never share an entry. Stable by
    contract; format changes require a cache-key version bump
    (see [Optrouter_serve.Cache]). *)
val config_fingerprint : config -> string

(** Raised when a solution decoded from the ILP fails the independent
    {!Optrouter_grid.Drc} audit that every decoded solution goes through.
    A violation means a formulation bug. *)
exception Drc_failure of string

(** Route a clip under a rule configuration.

    [seed], when given, MUST be an optimal routing of the same clip (under
    the same [config] graph options) for a rule configuration whose
    feasible set contains this one — in the rule sweep, the RULE1 baseline:
    every RULEk only adds constraints. Because rules are monotone, a seed
    that passes the independent DRC check under [rules] is immediately a
    proven optimum ({!Seed_fast_path}: zero B&B nodes, no ILP built);
    otherwise the solve re-encodes it as the starting incumbent when
    possible ({!Seed_incumbent}) and falls back to the heuristic incumbent
    when not ({!Seed_rejected}). Results are identical with or without a
    seed (and with [seed_reuse] off) up to solver limits — only the effort
    changes. Passing a merely-feasible (non-optimal) seed is unsound: the
    fast path would report it as optimal.

    [warm_basis], when given, is a name-keyed LP basis from a related
    solve (typically [stats.root_basis] of the RULE1 baseline), remapped
    onto this formulation via {!Optrouter_ilp.Simplex.Basis.of_assoc} and
    used to warm-start the root relaxation. Unlike [?seed] it carries no
    optimality claim, so any basis is safe — the simplex re-optimises
    dually and falls back to a cold start when it does not help. Gated by
    [seed_reuse], like seeds. *)
val route :
  ?config:config ->
  ?seed:Optrouter_grid.Route.solution ->
  ?warm_basis:(string * Optrouter_ilp.Simplex.vstat) list ->
  tech:Optrouter_tech.Tech.t ->
  rules:Optrouter_tech.Rules.t ->
  Optrouter_grid.Clip.t ->
  result

(** Route over an already-built graph (the graph must have been built with
    the same rules). [seed] and [warm_basis] as in {!route}; the seed's
    edge ids must refer to [g] (graph construction is deterministic and
    rule-independent, so a solution decoded from any rule configuration of
    the same clip, tech and graph options is valid). *)
val route_graph :
  ?config:config ->
  ?seed:Optrouter_grid.Route.solution ->
  ?warm_basis:(string * Optrouter_ilp.Simplex.vstat) list ->
  rules:Optrouter_tech.Rules.t ->
  Optrouter_grid.Graph.t ->
  result

(** [cost_of result] is the routing cost, or [None] when unroutable /
    no incumbent. *)
val cost_of : result -> int option
