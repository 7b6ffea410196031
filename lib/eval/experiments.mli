(** Drivers for every table and figure in the paper's evaluation.

    Each function returns printable data; the benchmark harness
    ([bench/main.exe]) renders them with {!Optrouter_report.Report} and the
    CLI exposes them individually. Experiments that need ILP solves run at
    a reduced default scale (see DESIGN.md, "Substitutions"); the scale is
    a parameter so paper-size runs remain possible. *)

(** Table 2: benchmark designs — technology, design, clock period,
    instance count, utilisation range. *)
val table2_rows : ?seed:int -> unit -> string list list

val table2_header : string list

(** Table 3: the RULE1..RULE11 configuration matrix, extended with the
    DSA via-coloring family RULE12..RULE14 (marked in the added "DSA
    vias" column). *)
val table3_rows : unit -> string list list

val table3_header : string list

type fig8_series = { label : string; top_costs : float array }

(** Figure 8: sorted top-[top] pin costs of AES and M0 implementations in
    N7-9T at three utilisations each. Runs at full design scale —
    extraction involves no ILP. *)
val fig8 : ?seed:int -> ?top:int -> unit -> fig8_series list

type fig10_params = {
  seed : int;
  instance_scale : float;  (** scales Table-2 instance counts down *)
  utils : float list;
  extract : Optrouter_clips.Extract.params;
  top_clips : int;  (** paper: 100; reduced default: 8 *)
  time_limit_s : float;  (** per ILP solve *)
  reuse : bool;
      (** exploit the RULE1 baseline routing in every rule solve (DRC
          fast path + seeded incumbents); default [true]. Entries are
          identical either way — only solver effort changes. *)
  solver_jobs : int;
      (** branch-and-bound worker domains per ILP solve (default 1).
          Solves that run side by side on a pool of two or more domains
          stay 1-wide ({!Optrouter_exec.Pool.solver_width}). Entries are
          identical either way — proved optima do not depend on it. *)
  solve_mode : Optrouter_core.Optrouter.solve_mode;
      (** [Exact] (default) proves optima with the ILP; [Lagrangian]
          trades the proof for sub-gradient decomposition — entries then
          carry near-optimal costs with a reported gap, which unlocks
          paper-size clips the exact solver cannot finish. *)
  objective : Optrouter_tech.Rules.objective;
      (** applied to the baseline and every swept rule (default
          [Wirelength], the paper's combined cost). [Via_count] /
          [Via_weighted] profile Δvia instead of Δcost — the Figure-10
          axis changes meaning with the objective. *)
}

val default_fig10_params : fig10_params

(** [scaled_profile scale profile] shrinks a Table-2 design profile's
    instance count by [scale] (floored, never below 60 instances) — the
    scale mapping every reduced-size experiment and the CLI share. *)
val scaled_profile :
  float -> Optrouter_design.Design.profile -> Optrouter_design.Design.profile

(** The difficult clips used by Figure 10 for one technology: harvested
    from AES and M0 designs at the given utilisations and ranked by pin
    cost. *)
val difficult_clips :
  ?params:fig10_params -> Optrouter_tech.Tech.t -> Optrouter_grid.Clip.t list

(** Rules evaluated for a technology (Section 4.1: N7-9T skips the rules
    its pin shapes cannot satisfy), excluding the RULE1 baseline. *)
val rules_for : Optrouter_tech.Tech.t -> Optrouter_tech.Rules.t list

(** Figure 10 (a/b/c by technology): Δcost entries for every (clip, rule)
    pair. Feed to {!Sweep.series} for the sorted profiles.

    [pool] and [telemetry] are forwarded to {!Sweep.sweep}:
    with a pool the (clip, rule) solves fan out over its worker domains
    and the entries remain byte-identical to the serial run. *)
val fig10 :
  ?params:fig10_params ->
  ?pool:Optrouter_exec.Pool.t ->
  ?telemetry:Sweep.telemetry ref ->
  Optrouter_tech.Tech.t ->
  Sweep.entry list

(** A deterministic 5x5-track, 4-layer, 4-net clip used by the size
    analysis and the bench's ablation. *)
val representative_clip : Optrouter_grid.Clip.t

(** Section 4.2 "Analysis of the number of variables and constraints":
    measured ILP sizes of one representative clip under the formulation
    variants, next to the graph quantities the paper's O(.) bounds use. *)
val ilp_size_rows : unit -> string list list

val ilp_size_header : string list

type validation = {
  v_clip : string;
  opt_cost : int option;
  baseline_cost : int option;
}

(** Footnote 6: OptRouter vs the heuristic baseline on difficult clips
    under RULE1. OptRouter's Δcost must be <= 0 wherever both route.
    With [pool], clips are validated on its worker domains, at the
    width {!Optrouter_exec.Pool.solver_width} gives them. *)
val validate :
  ?params:fig10_params ->
  ?pool:Optrouter_exec.Pool.t ->
  Optrouter_tech.Tech.t ->
  validation list

(** Section 5 runtime study: mean OptRouter wall-clock seconds
    ({!Optrouter_core.Optrouter.stats}[.elapsed_s]) on clips of two
    switchbox sizes, with and without SADP + via-restriction rules.
    Returns (size label, without rules, with rules) triples. *)
val runtime : ?params:fig10_params -> unit -> (string * float * float) list
