(** ILP formulation of the minimum-cost switchbox routing problem
    (Section 3 of the paper).

    From a routing graph this module instantiates:

    - arc usage binaries [e] and flow variables [f] per net and direction,
      with the linking constraints (2)-(3);
    - the arc exclusivity constraint (1) per undirected edge;
    - multi-commodity flow conservation (4), with [|T_k|] units leaving
      each supersource;
    - via adjacency restrictions (Section 3.2, "Via restrictions") between
      neighbouring single-via sites;
    - via-shape constraints (5): one member edge per side per net, plus
      blocking of all footprint vertices against other nets;
    - SADP end-of-line variables [p] (6)-(10) on SADP-patterned layers and
      the forbidden-configuration rows (11)-(12);
    - under DSA rules (RULE12+, Ait-Ferhat et al.), per-via assembly
      color binaries [c] with assignment rows [dsa_col_*] (a placed via
      takes exactly one color) and per-conflict-pair packing rows
      [dsa_cf_*] (vias within the DSA pitch on the same cut layer cannot
      share one) — the placed-via conflict graph must be k-colorable;
    - vertex exclusivity: no two nets may touch the same grid vertex.
      The paper's constraint set is arc-based; without this addition a
      via of one net may land on a wire of another, which the
      independent DRC checker (rightly) rejects, so a routing of the
      arc-only formulation can fail {!Optrouter.route}'s DRC audit
      ({!Optrouter.Drc_failure}). Always on.

    Two linearisations of the SADP [p] definitions are provided: the
    paper's, with four auxiliary product binaries per (net, vertex, side)
    as in constraint (9), and a collapsed one that lower-bounds [p]
    directly by [a + b - 1] for each product pair — equivalent at integral
    points because [p] only ever appears in "at most one" rows, but with
    40% fewer binaries. The collapsed form is the default; the paper form
    is used by the ILP-size study.

    Objective coefficients follow [rules.objective]
    ({!Optrouter_tech.Rules.objective_coeff}): the default reproduces the
    standard edge costs, the via-objective modes re-weight or isolate
    the cost-carrying via edges. *)

type options = {
  sadp_aux_vars : bool;  (** paper-style linearisation (9); default [false] *)
  aggregated_flows : bool;
      (** the paper's single aggregated flow per arc with [e >= f/|T_k|]
          (constraint (2)) instead of the default disaggregated per-sink
          unit flows. Integer optima are identical; the disaggregated LP
          relaxation is strictly tighter and solves far faster under the
          bundled branch and bound. Default [false]. *)
}

val default_options : options

type sizes = {
  vars : int;
  binaries : int;
  rows : int;
  nonzeros : int;
}

type t

val build :
  ?options:options -> rules:Optrouter_tech.Rules.t -> Optrouter_grid.Graph.t -> t
val lp : t -> Optrouter_ilp.Lp.t
val graph : t -> Optrouter_grid.Graph.t

(** The options the formulation was built with — the model auditor needs
    them to predict which constraint families must be present. *)
val options : t -> options

val sizes : t -> sizes

(** [e_var t ~net ~edge ~dir] is the LP column of the arc-usage binary, or
    -1 when the net may not use the edge. [dir] 0 is u->v, 1 is v->u. *)
val e_var : t -> net:int -> edge:int -> dir:int -> int

(** [decode t x] reads a routing solution out of an (integral) LP point. *)
val decode : t -> float array -> Optrouter_grid.Route.solution

(** [encode t solution] lifts a decoded (geometric) routing solution back
    to a full LP point — arcs, flows and auxiliaries — suitable as a
    branch-and-bound incumbent. Returns [None] if the solution is not a
    clean Steiner forest or does not satisfy the formulation (the ILP's
    SADP indicator is deliberately conservative, so rare DRC-clean
    solutions are rejected). *)
val encode : t -> Optrouter_grid.Route.solution -> float array option
