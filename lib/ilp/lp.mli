(** Linear / integer-linear program model.

    A problem is a set of variables (with bounds, objective coefficients and
    an integrality kind) and a set of linear rows (with a sense and a
    right-hand side). The objective is always {e minimized}.

    Problems are built through the mutable {!Builder} API, then frozen into
    an immutable {!t} that the solvers consume. *)

type sense = Le | Ge | Eq

type kind =
  | Continuous
  | Integer  (** integrality is enforced by {!Milp}, ignored by {!Simplex} *)

type var = {
  v_name : string;
  lower : float;  (** may be [neg_infinity] *)
  upper : float;  (** may be [infinity] *)
  obj : float;
  kind : kind;
}

type row = {
  r_name : string;
  sense : sense;
  rhs : float;
  coeffs : (int * float) array;
      (** sparse (variable index, coefficient); indices are strictly
          increasing and coefficients nonzero *)
}

type t = private { vars : var array; rows : row array }

val nvars : t -> int
val nrows : t -> int

(** Number of structural nonzeros over all rows. *)
val nnz : t -> int

(** [row_activity t row x] is the left-hand-side value of [row] at point
    [x]. *)
val row_activity : t -> row -> float array -> float

(** [objective_value t x] evaluates the objective at [x]. *)
val objective_value : t -> float array -> float

(** [is_feasible ?tol t x] checks bounds and all rows at point [x]. *)
val is_feasible : ?tol:float -> t -> float array -> bool

(** [is_integral ?tol t x] checks that every [Integer] variable takes an
    integral value in [x]. *)
val is_integral : ?tol:float -> t -> float array -> bool

val pp_sense : Format.formatter -> sense -> unit
val pp : Format.formatter -> t -> unit

module Builder : sig
  type problem := t
  type t

  val create : unit -> t

  (** [add_var b ~name ~lower ~upper ~obj kind] returns the new variable's
      index. Raises [Invalid_argument] if [lower > upper]. *)
  val add_var :
    t -> name:string -> lower:float -> upper:float -> obj:float -> kind -> int

  (** [add_binary b ~name ~obj] is [add_var] with bounds [0, 1] and kind
      [Integer]. *)
  val add_binary : t -> name:string -> obj:float -> int

  (** [add_row b ~name coeffs sense rhs] adds a linear row. Coefficients for
      a repeated variable index are summed; zero coefficients are dropped.
      Raises [Invalid_argument] on an out-of-range variable index. *)
  val add_row : t -> name:string -> (int * float) list -> sense -> float -> unit

  (** Freeze the builder. The builder may keep being extended afterwards;
      the frozen problem is unaffected. *)
  val finish : t -> problem
end
