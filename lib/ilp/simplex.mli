(** Revised primal simplex for linear programs with bounded variables.

    The implementation follows the classic product-form-of-the-inverse
    design: the basis inverse is maintained as a sequence of eta matrices
    (stored as a flat pool of unboxed arrays so the FTRAN/BTRAN kernels
    stream contiguous memory), refactorised periodically from the basis
    columns for numerical hygiene. Refactorisation places the columns
    sparsest first, breaking ties between equal lengths as [Array.sort]
    does, and places each at the cost of its FTRAN's nonzeros rather than
    O(m): a slack on a still unassigned row takes it directly.

    Every pass over an FTRANned column touches only its nonzeros and
    keeps the pivots of dense passes bit for bit. The FTRAN records the
    column's nonzero pattern and sorts it ascending; a placement's pivot
    search, the primal ratio test, both methods' step updates and every
    eta push walk that pattern in the row order of a dense scan, which
    fixes tie-breaks and each eta's entry order. The dual's pivot row
    comes from a row-wise copy of the matrix, summed over the nonzeros of
    [B^-T e_r] in ascending row order, so each column adds the nonzero
    terms of its column-wise dot product in the same order. The phase
    test reads a maintained count of basics outside a bound by more than
    the feasibility tolerance; the dual's leaving-row choice reads a
    maintained list of them, and its ratio test puts in order only the
    breakpoint tie groups it examines, each the run a full sort would
    give.

    Rows are turned into equalities with one (bounded) logical slack per
    row, so the initial all-slack basis always exists; primal
    infeasibility of the all-slack basis is driven out by a composite
    phase-1 objective (piecewise-linear sum of bound violations of basic
    variables).

    A supplied basis (what {!Milp} passes between branch-and-bound nodes,
    what {!Basis} carries across structurally different LPs via name-keyed
    remapping, and the crash basis {!Basis.of_point} builds at a feasible
    point) is factorised, and then:
    - when it is dual feasible, re-optimised by a bounded dual simplex.
      On entry each nonbasic column's cost is shifted by a deterministic
      epsilon in its dual-feasible direction, against dual degeneracy;
      the primal loop withdraws the shift before any optimality claim.
      Its ratio test is the long-step (bound-flipping) one: it passes the
      breakpoints of boxed columns while the leaving row's infeasibility
      pays for flipping them, and applies all the flips with one FTRAN
      before the basis change. A leaving row that no column can bring
      back to its bound is a dual ray: the solve returns [Infeasible]
      once a Farkas-style bound of that row over the box of every
      nonbasic column, taken from a fresh factorisation, misses the bound
      by more than 1e-6;
    - when it is primal but not dual feasible, kept, and the primal runs
      from it, with no phase 1 to do;
    - when it is neither, abandoned.
    A ray that bound refuses, a vanishing pivot or [m/2 + 200] dual
    pivots without primal feasibility abandon the basis too. An abandoned
    basis is thrown away, and the solve restarts from the all-slack
    basis.

    Pricing is devex over a partial candidate scan (reference weights
    updated per pivot, wrap-around chunked scan). After a long degenerate
    stall it falls back to Bland's rule (least-index entering and leaving
    variables) until the objective moves again. Pricing only chooses the
    path: the optimality test is a full scan under fixed duals, and
    terminal claims are re-derived from a fresh factorisation. Ratio-test
    steps limited by the entering variable's own opposite bound are applied
    as bound flips: no basis change, no eta, and the cached duals stay
    valid so the next pricing pass skips its BTRAN.

    Integrality kinds on variables are ignored here; this module solves the
    continuous relaxation. *)

type vstat =
  | Basic
  | At_lower
  | At_upper
  | Nb_free  (** nonbasic free variable, held at value 0 *)

(** A resumable basis: [vstat] has one entry per column (structural
    variables first, then one logical slack per row); [basic] maps each of
    the [m] basis positions to a column index. *)
type basis = { vstat : vstat array; basic : int array }

type status = Optimal | Infeasible | Unbounded

(** How a supplied starting basis was used: [`Cold] — none supplied;
    [`Reused] — factorised exactly as given and re-optimised from (by the
    dual when it is dual feasible, else by the primal);
    [`Repaired] — the same after substituting logical slacks for singular
    columns; [`Abandoned] — supplied, but thrown away for a restart from
    the all-slack basis (fill-in past [30m + 5000] eta nonzeros, a basis
    that is neither primal nor dual feasible, a refused dual ray, a
    vanishing dual pivot or the dual pivot cap). *)
type warm = [ `Cold | `Reused | `Repaired | `Abandoned ]

type result = {
  status : status;
  objective : float;  (** meaningful only when [status = Optimal] *)
  x : float array;  (** structural variable values *)
  duals : float array;  (** one multiplier per row *)
  basis : basis;
  iterations : int;
  bound_flips : int;
      (** nonbasic columns moved to their opposite bound without a basis
          change: primal ratio-test steps limited by the entering
          variable's own range (no eta, no fresh BTRAN), and the
          breakpoints a dual long step passes *)
  warm : warm;
  btran_saved : int;
      (** full BTRAN passes the dual re-optimisation avoided by updating
          the duals incrementally across pivots (one saved pass per dual
          pivot); 0 on cold starts that never enter the dual method *)
}

(** Refactorisation policy: [interval] is the hard cap on pivots between
    refactorisations of the eta file; the adaptive triggers refactor early
    when the eta file fills past [fill_factor] nonzeros per row (and has
    at least doubled since the last fresh factorisation, so dense bases
    cannot thrash) or when the relative residual of [B x = rhs] drifts
    past [residual_tol]. *)
type refactor_params = {
  interval : int;
  fill_factor : float;
  residual_tol : float;
}

(** [{ interval = 128; fill_factor = 16.0; residual_tol = 1e-7 }] *)
val default_refactor : refactor_params

exception Numerical_failure of string

(** Solver parameters, replacing the former optional-argument soup on
    {!Instance.solve}. Build with {!make_params}. *)
module Params : sig
  type t = {
    basis : basis option;  (** warm-start basis (instance column layout) *)
    lower : float array option;
        (** overrides the structural lower bounds; length [nvars] *)
    upper : float array option;
    deadline_s : float option;
        (** absolute [Unix.gettimeofday] abort time *)
    refactor : refactor_params;
  }

  (** No basis, no bound overrides, no deadline, {!default_refactor}. *)
  val default : t
end

(** Builder mirroring [Milp.make_params]: each argument defaults to the
    corresponding {!Params.default} field. *)
val make_params :
  ?basis:basis ->
  ?lower:float array ->
  ?upper:float array ->
  ?deadline_s:float ->
  ?refactor:refactor_params ->
  unit ->
  Params.t

(** A prepared instance caches the column-wise matrix and a row-wise copy
    (each row's slack last) so that repeated solves with different
    variable bounds (as branch and bound does) avoid re-elaborating the
    problem. *)
module Instance : sig
  type t

  val create : Lp.t -> t
  val nvars : t -> int
  val nrows : t -> int

  (** [solve ?params inst] solves the instance under [params] (default
      {!Params.default}). Raises {!Numerical_failure} if the basis cannot
      be kept factorised, 200k iterations pass, or the deadline passes. *)
  val solve : ?params:Params.t -> t -> result
end

(** One-shot convenience wrapper around {!Instance}. *)
val solve : ?params:Params.t -> Lp.t -> result

(** Name-keyed basis views, enabling warm starts across structurally
    different LPs (e.g. the RULE1 optimal basis remapped onto a RULEk
    encoding whose rule deltas added or dropped a few row families). Only
    per-column statuses travel; basis positions are rebuilt by
    refactorisation on intake. Variable and row names share one flat
    association list — a row entry carries the status of the row's logical
    slack. *)
module Basis : sig
  type t = basis

  (** [to_assoc lp b] lists [(name, status)] for every structural variable
      of [lp], then every row (its slack's status), in declaration order.
      Raises [Invalid_argument] if [b] does not match [lp]'s shape. *)
  val to_assoc : Lp.t -> basis -> (string * vstat) list

  (** [of_assoc lp assoc] rebuilds a basis for [lp] from name-keyed
      statuses, repairing structural mismatches: unknown-to-[assoc]
      columns start nonbasic, unknown rows get a basic slack, and the
      basic set is trimmed/filled to exactly [m] members (surplus demoted
      highest column index first, deficit filled by promoting slacks
      lowest row first). Returns [`Exact] when no repair was needed,
      [`Patched] otherwise. The result may still be singular — the solver
      repairs that during factorisation. *)
  val of_assoc :
    Lp.t -> (string * vstat) list -> basis * [ `Exact | `Patched ]

  (** [of_point lp x] is the crash basis of the point [x] (one value per
      structural variable): every logical slack basic, and every
      structural column nonbasic at the bound [x] sits on (exactly equal
      to it; the lower one when both are). At a feasible point the slacks
      absorb the row activities, so the basis is primal feasible, and its
      factorisation is the identity. [None] when a column sits anywhere
      but on one of its bounds. Raises [Invalid_argument] if [x] does not
      have one entry per variable. *)
  val of_point : Lp.t -> float array -> basis option

  (** Textual round-trip used by the [--warm-basis]/[--basis-out] CLI
      path: a [# optrouter basis v1] header, then one [v NAME S] line per
      variable and one [r NAME S] line per row with [S] in [B|L|U|F].
      [of_string] tolerates blank and [#] comment lines and repairs via
      {!of_assoc}. *)
  val to_string : Lp.t -> basis -> string

  val of_string :
    Lp.t -> string -> (basis * [ `Exact | `Patched ], string) Result.t
end

(** [verify_optimal ?tol lp result] independently checks the optimality
    certificate: primal feasibility of [result.x] and sign conditions of the
    reduced costs against the variable bounds. Returns an error description
    on failure. Useful in tests: it certifies optimality without trusting
    the solver internals — every warm-start path must pass it with the
    same objective. *)
val verify_optimal : ?tol:float -> Lp.t -> result -> (unit, string) Result.t
