(** Metal layers of the BEOL stack.

    Layers are identified by their metal number (M2, M3, ...). Routing in
    this project starts at M2 — M1 is reserved for intra-cell pin shapes, as
    in the paper. The preferred direction alternates: even metal numbers are
    horizontal, odd are vertical. *)

type direction = Horizontal | Vertical

(** Patterning technology of a layer: litho-etch-litho-etch (bidirectional
    mask-friendly) or self-aligned double patterning, which activates the
    end-of-line rules of Section 3.2. *)
type patterning = Lele | Sadp

type t = {
  metal : int;  (** metal number, >= 1 *)
  dir : direction;
  pitch : int;  (** track pitch in nm *)
  patterning : patterning;
}

(** [direction_of_metal m] is the project-wide convention: even metal
    numbers route horizontally, odd vertically. *)
val direction_of_metal : int -> direction

val is_horizontal : t -> bool
val pp_patterning : Format.formatter -> patterning -> unit
val pp : Format.formatter -> t -> unit
