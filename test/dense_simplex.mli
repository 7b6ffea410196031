(** Dense Big-M tableau simplex, used as an independent test oracle.

    This is a deliberately different implementation from
    {!Optrouter_ilp.Simplex}: dense tableau, Big-M artificials, upper
    bounds expanded into explicit rows. It only accepts problems where
    every variable has finite bounds, and it is O((m+n)^3)-ish — use it
    on small instances in tests, never in the production path. *)

type status = Optimal of float * float array | Infeasible | Unbounded

(** [solve lp] returns the optimal objective and a primal point, or the
    infeasible/unbounded verdict. Raises [Invalid_argument] if some
    variable bound is infinite. *)
val solve : Optrouter_ilp.Lp.t -> status
