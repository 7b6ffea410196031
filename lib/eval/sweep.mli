(** BEOL rule sweep over clips (the inner loop of Figure 6).

    Each clip is routed optimally under RULE1 to establish the baseline
    cost, then under every requested rule configuration; the result is the
    Δcost profile the paper plots in Figure 10. Following the paper's
    plotting convention, unroutable clips are plotted at Δcost = 500
    ({!delta_value}); solver limits are folded into the same bucket (and
    counted separately).

    Every (clip, rule) solve is independent, so the sweep fans out over
    an {!Optrouter_exec.Pool}: pass [?pool] and the solves run on its
    worker domains while the entry list stays byte-identical to the
    serial path; a missing pool is the 1-domain pool. A solve that
    raises (a DRC audit failure, numerical trouble escaping the solver)
    is captured per task: the sweep carries on, the entry lands in the
    [Limit] bucket and the telemetry counts it under [failures].

    Each of the sweep's two fan-outs (baselines, then rule solves) sets
    its solves' branch-and-bound width once, by
    {!Optrouter_exec.Pool.solver_width}: [config.milp.solver_jobs] when
    the pool runs them one at a time (fewer than two domains, or a
    single task), else 1. So a serial sweep honours [solver_jobs], and a
    [-j N] sweep runs N 1-wide solves at a time with the same effort on
    every run: widening pooled solves into idle domains made all-rule
    pool sweeps at [-j 2 --solver-jobs 2] 25% slower than at [-j 2] on
    a 2-core host. Entries are identical either way: solver parallelism
    changes node counts and (between alternative optima) the witness
    routing, never the proved-optimal cost. *)

type delta =
  | Delta of int
      (** objective - objective(baseline), in the rule's objective
          ({!Optrouter_tech.Rules.objective_value}); under the default
          wirelength objective exactly [cost - cost(RULE1)]. Rounded to
          nearest — exact whenever the objective is integral. *)
  | Infeasible
  | Limit  (** solver gave up (or the solve failed) before proving either way *)

(** The plotted Δcost: [d] for [Delta d], and the paper's plotting
    constant 500 for unroutable clips and solver limits. *)
val delta_value : delta -> float

type entry = {
  clip_name : string;
  rule_name : string;
  delta : delta;
  cost : int option;
  base_cost : int;
}

(** Aggregate solver effort across the solves of one sweep. [busy_s] is
    the sum of per-solve wall times — under domain parallelism it exceeds
    the sweep's elapsed time by design (it measures total solver work).
    [wall_s] is the true elapsed wall clock of the sweep call itself; the
    ratio of the two is the achieved parallel speedup. (Before the split a
    single [wall_s] field held the busy sum, mislabelled as wall time.) *)
type telemetry = {
  solves : int;
  fast_path_hits : int;
      (** rule solves answered by re-checking the RULE1 baseline routing —
          no ILP built, zero branch-and-bound nodes *)
  seeded_incumbents : int;
      (** rule solves that started branch and bound from the re-encoded
          baseline routing instead of the maze heuristic *)
  nodes : int;  (** branch-and-bound nodes *)
  simplex_iterations : int;
  root_lp_iters : int;
      (** simplex iterations spent in root-relaxation solves alone *)
  bound_flips : int;
      (** bound-flip ratio-test steps across the root solves *)
  warm_reused : int;
      (** rule solves whose root LP reused the baseline's remapped basis
          as-is *)
  warm_repaired : int;
      (** rule solves whose remapped basis needed structural or
          factorisation repair before reuse *)
  warm_abandoned : int;
      (** rule solves given the baseline's remapped basis whose root LP
          threw it away and restarted from the all-slack basis *)
  busy_s : float;  (** summed per-solve wall time (aggregate solver work) *)
  wall_s : float;  (** true elapsed wall clock of the sweep *)
  limits : int;  (** solves that hit the node/time limit *)
  infeasible : int;
  failures : int;  (** solves that raised; reported as [Limit] entries *)
  steals : int;
      (** cross-worker frontier steals inside parallel solver searches *)
  solver_busy_s : float;
      (** summed per-worker branch-and-bound busy time across solves *)
  solver_wall_s : float;
      (** summed MILP-solve wall time across the solves of one sweep
          (spans merge by [max] across merged records — see
          {!merge_telemetry}) *)
  peak_workers : int;
      (** widest branch-and-bound search of the sweep; 0 when every solve
          was answered by the fast path *)
  lagrangian_solves : int;
      (** solves that ran the decomposition path
          ([solve_mode = Lagrangian]) *)
  lag_iterations : int;  (** summed sub-gradient iterations *)
  lag_busy_s : float;
      (** summed pricing time across decomposition solves *)
  lag_wall_s : float;
      (** summed decomposition-solve wall time (a span: merges by [max]
          across merged records, like [solver_wall_s]) *)
  lag_gap_max : float;
      (** worst reported optimality gap of any decomposition solve (0
          when none reported one) *)
  lag_unrounded : int;
      (** decomposition solves whose rounding found no feasible routing *)
}

val empty_telemetry : telemetry

(** Merge two telemetry records. Work fields (solves, nodes, iterations,
    [busy_s], [solver_busy_s], ...) are additive and sum; wall fields
    ([wall_s], [solver_wall_s]) are elapsed spans and merge by [max] —
    shards merged here are assumed concurrent, so summing spans would
    report more wall-clock time than actually elapsed under [-j N] (the
    merged value is an elapsed bound, and [busy_s >= wall_s] no longer
    holds by construction for a merged record). [peak_workers] merges by
    [max]. Callers totalling {e sequential} runs should accumulate their
    own span sum alongside (the bench keeps [sections_wall_s]). *)
val merge_telemetry : telemetry -> telemetry -> telemetry

(** Plain-text summary of a telemetry record. Three lines always: solve
    count with wall and busy time, B&B nodes and simplex iterations; the
    fast-path hits and seeded incumbents of the baseline-reuse layer;
    limits, infeasible solves and failures. Optional lines follow only
    when they carry something: root-LP iterations, bound flips and warm
    bases reused / repaired, plus abandoned when any was (any root
    activity); solver parallelism with
    nodes per busy second and efficiency
    [solver_busy_s / (solver_wall_s * peak_workers)] (any solve wider
    than one worker, or any steal); Lagrangian solves, iterations,
    pricing time, worst gap and unrounded solves (any decomposition
    solve); and the per-source counts of the
    {!Optrouter_report.Report.Log} events suppressed so far because their
    level was disabled. *)
val render_telemetry : telemetry -> string

(** The solver configuration used for baseline solves: [config]
    (or {!Optrouter_core.Optrouter.default_config} when [None]) with the
    MILP time budget tripled — an unproved baseline drops the whole clip,
    wasting every other solve. Exposed for tests. *)
val baseline_config :
  Optrouter_core.Optrouter.config option -> Optrouter_core.Optrouter.config

(** [sweep ?config ?pool ?telemetry ?on_entry ?baseline ~tech ~rules
    clips] routes each clip under [baseline] (default [Rules.rule 1])
    and then under each configuration in [rules]. Clips that are
    unroutable (or unproved) even under the baseline are dropped.

    For via-objective sweeps pass a baseline carrying the same objective
    as the rules ([Rules.with_objective obj (Rules.rule 1)]): the zero-Δ
    fast path re-checks the baseline routing under each rule, which is
    only a proof of Δ = 0 when both solves optimise the same objective.

    The baseline routing seeds every rule solve of its clip
    ({!Optrouter_core.Optrouter.route}'s [?seed]): rules whose DRC accepts
    the baseline are answered without any ILP (the paper's dominant
    zero-Δ case), the rest start branch and bound from a re-encoded
    incumbent when possible. Entries are byte-identical with reuse
    disabled ([config] with [seed_reuse = false]) as long as no solver
    limit is hit; only the solve effort differs.

    Solves run in two batches over [pool]: all baselines
    (each with the tripled {!baseline_config} budget), then the whole
    (clip x rule) cross product of the surviving clips, so the pool
    stays saturated even when each clip has few rules. The entry list is
    identical to the serial path and to sweeping the clips one at a
    time. The pool's collector — always the calling domain — emits one
    [info] event on the [sweep] source of {!Optrouter_report.Report.Log}
    per completed (clip, rule) solve, in completion order: the sweep's
    progress lines. It then invokes [on_entry] on the entry, for callers
    that time or count entries. [telemetry], when given, is updated in
    place (deterministically, in task order) with every solve including
    the baselines. *)
val sweep :
  ?config:Optrouter_core.Optrouter.config ->
  ?pool:Optrouter_exec.Pool.t ->
  ?telemetry:telemetry ref ->
  ?on_entry:(entry -> unit) ->
  ?baseline:Optrouter_tech.Rules.t ->
  tech:Optrouter_tech.Tech.t ->
  rules:Optrouter_tech.Rules.t list ->
  Optrouter_grid.Clip.t list ->
  entry list

(** [series entries] groups by rule and sorts each rule's Δcost values
    ascending (infeasible / limit = 500 landing last), ready for a
    Figure-10 style plot. *)
val series : entry list -> (string * float array) list

(** Count of infeasible clips per rule, as discussed in Section 4.2. *)
val infeasible_counts : entry list -> (string * int) list
