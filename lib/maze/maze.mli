(** Heuristic sequential detailed router — the baseline OptRouter is
    compared against (the role the commercial router plays in the paper's
    footnote 6 validation).

    Nets are routed one at a time with multi-source Dijkstra growing a
    Steiner tree over the routing graph, honouring edge and vertex
    exclusivity and via adjacency restrictions during search. Multiple
    randomised net orders are tried and the cheapest legal result kept;
    SADP end-of-line violations (which a maze search cannot see locally)
    are repaired by penalise-rip-up-reroute rounds audited with the
    independent {!Optrouter_grid.Drc} checker. Like any sequential router
    it is (deliberately) suboptimal: tests assert its cost is never below
    OptRouter's. *)

type params = {
  restarts : int;  (** randomised net orders to try (default 8) *)
  rip_up_rounds : int;  (** violation-repair rounds per restart (default 4) *)
  seed : int;
}

val default_params : params

type result = {
  solution : Optrouter_grid.Route.solution option;
      (** best DRC-clean solution, or [None] if every attempt failed *)
  restarts_used : int;
  rip_ups : int;  (** total nets ripped up over all restarts *)
}

(** [attempt ~rules ~edge_cost ~vertex_cost ~order ~reorder ~rounds g] is
    one sequential routing pass. The nets of [order] are routed one at a
    time; a search step from [u] to [v] over edge [e] costs
    [d + cost(e) + penalty(e) + edge_cost.(e) + vertex_cost.(v)], added in
    that order, where [penalty] starts at zero. While
    {!Optrouter_grid.Drc.check} finds violations and fewer than [rounds]
    reroutes have run, the edges each violation involves gain a penalty
    of 8, every net is ripped up, and all are rerouted in the order
    [reorder ()] returns. The pass fails when a net finds no path or a
    violation blames no net. [edge_cost] is indexed by edge and
    [vertex_cost] by vertex (length [g.nverts]); both must be
    non-negative. Returns the DRC-clean solution, if the pass reached
    one, and the rip-ups: the nets blamed, summed over its reroutes. *)
val attempt :
  rules:Optrouter_tech.Rules.t ->
  edge_cost:float array ->
  vertex_cost:float array ->
  order:int array ->
  reorder:(unit -> int array) ->
  rounds:int ->
  Optrouter_grid.Graph.t ->
  Optrouter_grid.Route.solution option * int

(** [route ?params ~rules g] keeps the cheapest of [params.restarts]
    {!attempt}s: the first in net-index order with zero costs, the rest
    in shuffled orders with per-edge random noise below 0.45, each repair
    round rerouting in a fresh shuffle. *)
val route :
  ?params:params ->
  rules:Optrouter_tech.Rules.t ->
  Optrouter_grid.Graph.t ->
  result
