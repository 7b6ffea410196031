(** Lagrangian decomposition of the switchbox routing ILP (the
    sub-gradient parallel router of Agrawal et al., arXiv:1803.03885,
    adapted to the paper's rule-aware routing graph).

    The exact formulation couples nets only through shared capacity rows:
    arc exclusivity (one net per undirected edge) and vertex exclusivity
    (one net per grid vertex). Dualising those rows with multipliers
    [lambda >= 0] (edges) and [mu >= 0] (grid vertices) makes the
    relaxation separate into one independent minimum Steiner tree problem
    per net over the multiplier-priced graph:

    L(lambda, mu) = sum_k min_tree_k(cost + lambda + mu)
                    - sum lambda - sum mu  <=  ILP optimum.

    Every remaining coupling family (via adjacency, via-shape sides, SADP
    end-of-line, DSA coloring under RULE12+) is simply dropped from the
    relaxation, which keeps L(lambda, mu) a valid lower bound — dropping
    rows can only enlarge the feasible set. Rounded primal candidates are
    still certified by the full rule-aware [Drc.check], so the dropped
    families re-enter on the primal side.

    Per-net subproblems are solved {e exactly} (node-weighted
    Dreyfus-Wagner dynamic program over terminal subsets; plain Dijkstra
    for two-terminal nets) whenever the net has at most eight sinks;
    beyond that cap a valid per-net lower bound (longest source-to-sink
    shortest path) substitutes, so the dual bound stays valid at any
    fan-out. The price and the tree read only the full sink set's label
    at the net's source and its arrival path, so the two-terminal
    Dijkstra and the DP's last (full-mask) Dijkstra stop as soon as the
    source settles. This is exact, not a heuristic: every price is
    non-negative and relaxation needs a strict improvement, so every
    vertex settled by then (the source's arrival path included) already
    holds its final label and arrival edge, exactly as a full run would
    leave it. Edges are priced in the rules' objective
    ({!Optrouter_tech.Rules.objective_coeff}), matching the exact
    formulation. When every coefficient is integral (the default
    wirelength objective, via-count, integral via weights) the ILP
    optimum is integral too and the reported {!t.dual_bound} is lifted
    to [ceil] of the best raw dual value; fractional via weights keep
    the raw dual.

    Pricing runs serially, net by net. The subproblems are independent
    and Agrawal et al. price them in parallel on a many-core host, but a
    per-solve pool of worker domains never paid here: on a 2-core host
    paper-size solves ran at 0.40-0.94x of serial speed at widths 2 and 4,
    with the summed per-net pricing time up 1.4-2.5x, so the fan-out was
    removed. A sweep parallelises across solves instead.

    The primal side starts before the first iteration: a
    {!Optrouter_maze.Maze.route} incumbent (and a clean [?seed]) is the
    upper bound the Polyak step needs. Rounding is then one
    {!Optrouter_maze.Maze.attempt} under the multipliers — [lambda] as
    edge costs, [mu] as grid-vertex costs — routing the nets in
    descending order of their last subproblem cost, with up to six
    penalise-rip-up-reroute rounds, and certified by
    {!Optrouter_grid.Drc.check}. It runs after the first iteration,
    every [round_every] iterations, and once more at the end unless the
    bound already meets the primal. On the 90 paper-size clips of the
    benchmark pool under RULE1 it never rips up a net and beats the maze
    incumbent on one ([q223]: 164 -> 156, dual bound 137); every other
    returned routing is the maze's. Solutions are feasible and
    DRC-certified but {e not} proven optimal — the gap against
    {!t.dual_bound} quantifies how far off they can be.

    Infeasibility is proven only by reachability ({!t.unreachable}). A
    clip whose nets can all reach their sinks but that no routing
    satisfies comes back with no solution: under RULE8 the exact solver
    proves three sampled paper-size clips unroutable in 12–18 s, while
    this mode returns no routing and a bound that proves nothing. *)

type params = {
  max_iters : int;
      (** sub-gradient iterations (default 150); the loop stops earlier
          once the lifted dual bound meets the primal objective *)
  time_limit_s : float option;  (** wall deadline for the whole solve *)
  round_every : int;  (** rounding-attempt cadence in iterations *)
}

val default_params : params

val make_params :
  ?max_iters:int ->
  ?time_limit_s:float option ->
  ?round_every:int ->
  unit ->
  params

(** One sub-gradient iteration, for per-iteration telemetry. *)
type iter_stat = {
  it : int;
  dual : float;  (** raw L(lambda, mu) of this iteration *)
  best_dual : float;  (** best raw dual value so far *)
  primal : int option;
      (** best feasible routing's standard cost metric so far, if any
          (always the cost metric, even under via objectives) *)
  step : float;  (** sub-gradient step size used *)
  mult_norm : float;  (** multiplier 2-norm after the update *)
  busy_s : float;  (** wall time of the iteration's pricing pass *)
}

type t = {
  solution : Optrouter_grid.Route.solution option;
      (** best feasible routing, certified by [Drc.check]; [None] when
          the seed, the maze incumbent and every rounding attempt failed *)
  dual_bound : float;
      (** lower bound on the ILP optimum in objective units, never
          negative: [ceil(max_it L - eps)] for integral objectives, the
          raw [max_it L] otherwise. 0 when no iteration completed. *)
  unreachable : bool;
      (** some net cannot reach a sink through its allowed edges at all:
          the ILP is infeasible by plain graph reachability (the only
          case this mode can prove) *)
  iterations : int;
  gap : float option;
      (** (primal - dual_bound) / primal in objective units, when a
          feasible routing was found (0 for a zero-objective primal) *)
  busy_s : float;
      (** pricing time summed over the iterations; the rest of [wall_s]
          goes to the reachability check, the maze incumbent, the
          multiplier updates and rounding *)
  wall_s : float;
  rounding_attempts : int;
  rip_ups : int;  (** nets ripped up across all repair rounds *)
  seeded : bool;
      (** the [?seed] passed [Drc.check] under the rules and entered as
          the initial incumbent ([false] without a seed) *)
  trace : iter_stat list;  (** per-iteration telemetry, oldest first *)
}

(** [solve ?params ?seed ~rules g] runs the sub-gradient loop on a built
    routing graph. [seed], when given and DRC-clean under [rules], is an
    initial feasible incumbent (an upper bound for the Polyak step and
    the starting [solution]); unlike the exact solver's fast path it
    carries {e no} optimality claim. Deterministic for fixed [params]
    modulo the wall deadline. *)
val solve :
  ?params:params ->
  ?seed:Optrouter_grid.Route.solution ->
  rules:Optrouter_tech.Rules.t ->
  Optrouter_grid.Graph.t ->
  t
