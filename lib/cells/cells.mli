(** Synthetic standard-cell archetypes.

    The paper's experiments consume commercial 28nm 8-track / 12-track
    libraries and a prototype 7nm 9-track library, none of which can be
    redistributed. What the evaluation actually depends on is the {e pin
    statistics} of each library: how many pins a cell exposes, how large
    the pin shapes are, how close together they sit, and how many usable
    access points each offers (Figure 9). This module synthesises cells
    with those properties per technology:

    - N28-12T: tall cells, long pin fingers, ~5 access points per pin;
    - N28-8T: shorter cells, ~4 access points;
    - N7-9T: two access points per input pin, adjacent and near the
      neighbouring pin — the configuration that makes RULE2/7/9/10/11
      unevaluable in the paper.

    Geometry convention: a cell occupies [width_cols] vertical-track
    columns; pin access points are (column, row) offsets from the cell's
    lower-left placement site; pin shapes are nm rectangles relative to the
    same origin. *)

type pin = {
  p_name : string;
  offsets : (int * int) list;  (** access point offsets, in track units *)
  shape : Optrouter_geom.Rect.t;  (** nm, relative to the cell origin *)
  is_output : bool;
}

type t = {
  c_name : string;
  width_cols : int;
  pins : pin list;
}

(** [library tech] is the cell set used by the synthetic designs: INV, BUF,
    NAND2, NOR2, AOI21, OAI21, MUX2, XOR2 and DFF variants. *)
val library : Optrouter_tech.Tech.t -> t list

(** [nand2 tech] reproduces the NAND2X1 of Figure 9 for pin-shape studies. *)
val nand2 : Optrouter_tech.Tech.t -> t

val find : t list -> string -> t
val inputs : t -> pin list
val outputs : t -> pin list

(** ASCII rendering of the cell's pin layout (Figure 9 style). *)
val render : Optrouter_tech.Tech.t -> t -> string

val pp : Format.formatter -> t -> unit
