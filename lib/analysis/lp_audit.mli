(** Static verification of frozen ILP models.

    Every Δcost in the rule sweep is only as trustworthy as the constraint
    generator: a rule knob that silently stops emitting its constraint
    family still "solves" — it just answers the wrong question. This
    module analyses an {!Optrouter_ilp.Lp.t} (and, for formulations, its
    originating rule configuration and routing graph) {e without solving}
    and reports diagnostics with stable codes:

    - [A0xx] structural well-formedness: duplicate or empty row/variable
      names, empty rows, fixed/free columns, integer variables with
      non-integral bounds, trivially infeasible rows;
    - [A1xx] numerical conditioning: per-row coefficient magnitude spread,
      extreme coefficients and right-hand sides;
    - [A2xx] redundancy: duplicate, dominated and conflicting rows;
    - [A3xx] rule coverage: the set of emitted row/variable name families
      must match {e exactly} the constraint classes implied by the active
      {!Optrouter_tech.Rules.t} and formulation options — e.g. disabling
      SADP must remove the [p_]/EOL rows and nothing else, and toggling a
      DSA rule (RULE12+) must add/remove exactly the [dsa_] rows and
      color columns. The expected families are re-derived independently
      from the rules and the graph structure, so a silent drop (or leak)
      in [Formulate] is caught even though [Formulate] itself "works".
      A305 additionally pins the objective vector to the rules'
      {!Optrouter_tech.Rules.objective}: a via objective must change
      exactly the objective coefficients and nothing else.

    The full catalogue with worked examples lives in the README
    ("Diagnostic codes"). *)

type severity = Error | Warning | Info

type diagnostic = {
  code : string;  (** stable, e.g. "A001" *)
  severity : severity;
  subject : string;  (** offending row / variable / family name *)
  message : string;
}

(** Diagnostics of the given severity. *)
val by_severity : severity -> diagnostic list -> diagnostic list

val error_count : diagnostic list -> int

(** {1 Audit layers} *)

(** [A0xx] checks on any frozen problem. *)
val structure : Optrouter_ilp.Lp.t -> diagnostic list

(** [A1xx] checks on any frozen problem. *)
val numerics : Optrouter_ilp.Lp.t -> diagnostic list

(** [A2xx] checks on any frozen problem. *)
val redundancy : Optrouter_ilp.Lp.t -> diagnostic list

(** [A3xx] rule-coverage cross-check of a formulation's problem against
    the configuration that allegedly produced it. Exposed at this
    granularity so tests can audit a doctored problem (rebuilt through
    {!Optrouter_ilp.Lp.Builder} with a family suppressed) against the
    honest rules/graph. *)
val coverage :
  rules:Optrouter_tech.Rules.t ->
  options:Optrouter_core.Formulate.options ->
  Optrouter_grid.Graph.t ->
  Optrouter_ilp.Lp.t ->
  diagnostic list

(** Structure, numerics and redundancy on a bare problem. *)
val audit_lp : Optrouter_ilp.Lp.t -> diagnostic list

(** All four layers on a formulation. *)
val audit :
  rules:Optrouter_tech.Rules.t ->
  Optrouter_core.Formulate.t ->
  diagnostic list

(** {1 Rendering} *)

(** One line per diagnostic; empty string when the list is empty. *)
val render : diagnostic list -> string

(** JSON object with severity totals and the diagnostics; [meta] fields
    (e.g. clip and rule names) are prepended. *)
val to_json :
  ?meta:(string * Optrouter_report.Report.Json.t) list ->
  diagnostic list ->
  Optrouter_report.Report.Json.t

(** {1 Router integration} *)

exception Audit_failure of diagnostic list

(** A callback for {!Optrouter_core.Optrouter.config}[.audit]. [strict]
    (default [true]) raises {!Audit_failure} when any [Error] diagnostic
    is found; warnings and infos go through
    {!Optrouter_report.Report.Log} (source ["audit"]) either way. *)
val hook :
  ?strict:bool ->
  unit ->
  rules:Optrouter_tech.Rules.t ->
  Optrouter_core.Formulate.t ->
  unit
