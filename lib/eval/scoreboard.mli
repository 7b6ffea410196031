(** Reproduction scoreboard: the paper's qualitative claims, checked
    mechanically against measured data.

    Each claim from Section 4.2 (and the Figure 8 discussion) is encoded
    as a predicate over sweep entries / pin-cost series; the harness
    prints one verdict line per claim so a reader can see at a glance
    which observations carry over to the reduced-scale run and which are
    inconclusive (e.g. drowned in solver limits). *)

type verdict =
  | Reproduced
  | Diverged of string  (** the data contradicts the claim *)
  | Inconclusive of string  (** not enough proved data points *)

type finding = { claim : string; verdict : verdict }

(** Claims about a technology's Δcost profiles (Figure 10):
    - SADP rules restricted to upper layers (RULE4, RULE5) barely move
      Δcost;
    - via-restriction rules cause at least as much infeasibility as
      SADP-only rules;
    - the broader the SADP scope, the higher the cost (RULE2 worst among
      RULE2..RULE5);
    - a large share of clips shows zero Δcost under upper-layer rules
      (the paper's pin-cost/routability gap observation). *)
val fig10_findings : Sweep.entry list -> finding list

(** Claims about the pin-cost distributions (Figure 8): top-cost ranges
    barely move with utilisation, and are not design specific. *)
val fig8_findings : Experiments.fig8_series list -> finding list

val pp_findings : Format.formatter -> finding list -> unit
