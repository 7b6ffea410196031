(** Parallel branch-and-bound solver for mixed integer linear programs.

    Solves LP relaxations with {!Simplex} on [solver_jobs] workers (OCaml
    domains — the calling domain plus [solver_jobs - 1] spawned ones).
    Each worker owns a private {!Simplex.Instance} and pulls open subtree
    roots from a shared best-bound frontier; after branching it keeps the
    rounding-preferred child locally (plunging — a DFS dive over the hot
    warm basis) and publishes the sibling for any worker to steal.
    Branching uses pseudo-costs once both directions of a variable have
    been observed, falling back to {!most_fractional} until then. Nodes
    carry bound-delta chains instead of copied bound arrays, so node
    creation is O(changed bounds), not O(nvars).

    Determinism contract: for a given problem the returned [objective],
    [best_bound] and [outcome] (in particular [Proved_optimal]) are the
    same whatever [solver_jobs] is — pruning decisions only ever compare
    against proven incumbents, so racing workers can change the order of
    exploration, the [nodes]/[simplex_iterations] counts and (between
    alternative optima) the witness [x], never the optimum itself. When
    every variable carrying a nonzero objective coefficient is integral
    with an integral coefficient, LP bounds are rounded up, which prunes
    much earlier on routing instances whose costs are small integers. *)

type outcome =
  | Proved_optimal
  | Feasible  (** a limit was hit; [x] holds the best incumbent found *)
  | Infeasible
  | Unbounded
  | Unknown  (** a limit was hit before any incumbent was found *)

type result = {
  outcome : outcome;
  objective : float;  (** incumbent objective; meaningless for [Infeasible]/[Unknown] *)
  x : float array;
  nodes : int;
  best_bound : float;  (** global lower bound at termination *)
  simplex_iterations : int;
  root_lp_iters : int;
      (** simplex iterations of the root-relaxation solve alone; 0 when
          the search stopped before the root LP finished *)
  root_bound_flips : int;  (** bound-flip steps of the root solve *)
  root_warm : Simplex.warm;
      (** how the root solve used the [?root_basis] warm start; a basis
          the solve raised on, so that the root was re-solved cold, counts
          as [`Abandoned]. Without [?root_basis] it is [`Cold], also when
          the root started from the crash basis of [?initial]: counts of
          reused bases count related solves only. *)
  root_basis : Simplex.basis option;
      (** optimal basis of the root relaxation, for reuse as a
          [?root_basis] on related LPs (remapped via {!Simplex.Basis});
          [None] when the root LP did not finish [Optimal] *)
  workers : int;  (** effective parallel width of the search *)
  steals : int;
      (** frontier nodes popped by a worker other than the one that
          pushed them; always 0 for serial solves *)
  solver_busy_s : float;
      (** summed per-worker node-processing time; [solver_busy_s /
          solver_wall_s] is the achieved parallel speedup of the solve *)
  solver_wall_s : float;  (** wall clock of the whole solve *)
}

type params = {
  max_nodes : int;
  time_limit_s : float option;
      (** wall-clock seconds, measured with [Unix.gettimeofday]. Wall
          rather than CPU time: parallel sweeps run several solves in one
          process, where accumulated CPU seconds are meaningless as a
          per-solve deadline. *)
  integrality_tol : float;
  solver_jobs : int;
      (** worker domains for the branch-and-bound search itself (1 =
          serial, the default). A fan-out of solves over a domain pool
          overrides it ({!Optrouter_exec.Pool.solver_width}: solves
          that run side by side are 1-wide). Values below 1 behave as 1;
          capped at 128. *)
  simplex : Simplex.Params.t;
      (** LP solver parameters (refactorisation policy, …) handed to
          every LP solve; the per-node basis, bounds and deadline fields
          are overridden by the search itself *)
}

val default_params : params

(** [most_fractional tol lp x] is the fallback branching variable at the
    LP point [x]: the [Integer] variable whose fractional part is
    furthest from integral (at least [tol] away), weighted by objective
    coefficient so expensive decisions are fixed first. [None] when [x]
    is integral. The search proper prefers pseudo-cost scores once a
    variable has been branched both ways; until then it scores exactly
    like this function. Total-function safe for values of any magnitude
    (doubles beyond 2{^53} are integral by construction). Exposed for
    tests. *)
val most_fractional : float -> Lp.t -> float array -> int option

(** [make_params ()] is {!default_params}; each argument overrides one
    field. Prefer this over record literals at call sites — future solver
    knobs then arrive without breaking callers. [time_limit_s] left out
    means no time limit. *)
val make_params :
  ?max_nodes:int ->
  ?time_limit_s:float ->
  ?integrality_tol:float ->
  ?solver_jobs:int ->
  ?simplex:Simplex.Params.t ->
  unit ->
  params

(** [solve ?params ?initial ?cutoff lp] minimizes.

    [initial], when given, is a known feasible integral point used as the
    starting incumbent (it is re-validated; an infeasible or fractional
    point is silently ignored). Providing a good initial solution — e.g.
    from a problem-specific heuristic — lets the very first bound
    comparisons prune, which on routing instances routinely collapses the
    tree to a handful of nodes. Without [root_basis], a valid point also
    sets the root LP's starting basis: {!Simplex.Basis.of_point} puts
    every column at the bound the point sits on, a primal feasible start
    that skips phase 1. A point with a column strictly inside its bounds
    has no such basis, and the root starts from the all-slack one. The
    root may then reach another optimal vertex than a start from all
    slacks: the objective, bound and outcome do not change, the witness
    [x] may.

    [cutoff] is a weaker form: only the objective of a known solution.
    Nodes that cannot beat it are pruned and only strictly better
    incumbents are recorded; if the search completes without finding one,
    the outcome is [Proved_optimal] with [objective = cutoff] and an empty
    [x] — the external solution was already optimal. Both fast paths hold
    under any [solver_jobs].

    [root_basis] warm-starts the root-relaxation solve (typically the
    remapped optimal basis of a related LP, via {!Simplex.Basis}), in
    place of the crash basis of [initial]; [result.root_warm] reports
    whether it was reused.

    Each new incumbent is logged at debug level on the [milp] source of
    {!Optrouter_report.Report.Log}. *)
val solve :
  ?params:params ->
  ?initial:float array ->
  ?cutoff:float ->
  ?root_basis:Simplex.basis ->
  Lp.t ->
  result
