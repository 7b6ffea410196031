(** Pin cost metric of Taghavi et al. [15], used to rank clips by routing
    difficulty (Section 4, "Extraction of routing clips").

    - PEC (pin existence cost): the number of pins;
    - PAC (pin area cost): sum over pins of [2^(2 - area(p) / theta)] —
      smaller pins cost more;
    - PRC (pin spacing cost): sum over pin pairs of
      [2^(2 - spacing(p_i, p_j) / (3 theta))] — closer pins cost more.

    The clip's pin cost is PEC + PAC + PRC with theta = 500. Areas are in
    units of 10*theta nm^2 and spacings in nm, chosen (like the paper's
    theta) so the terms land in a comparable range; only the {e ranking}
    of clips matters downstream. Port pins synthesised at clip boundaries
    carry no shape and contribute to PEC only. *)

val pec : Optrouter_grid.Clip.t -> float
val pac : ?theta:float -> Optrouter_grid.Clip.t -> float
val prc : ?theta:float -> Optrouter_grid.Clip.t -> float

(** [total ?theta clip] = PEC + PAC + PRC. *)
val total : ?theta:float -> Optrouter_grid.Clip.t -> float
