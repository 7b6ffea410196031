(** Routing clips (switchbox instances).

    A clip is the unit of optimal routing: a window of [cols] vertical
    tracks by [rows] horizontal tracks over [layers] routing layers
    (counted from M2), holding a small netlist whose pins expose access
    points on the lowest routing layer. This mirrors the paper's 1.0um x
    1.0um clips (7 x 10 tracks, 8 layers in 28nm). *)

type pin = {
  p_name : string;
  access : (int * int) list;
      (** usable access points, as (column, row) grid coordinates on M2 *)
  shape : Optrouter_geom.Rect.t option;
      (** physical pin shape in nm, used by the pin-cost metric *)
}

type net = {
  n_name : string;
  pins : pin list;  (** at least two; the first pin is the source *)
}

type t = {
  c_name : string;
  tech_name : string;
  cols : int;
  rows : int;
  layers : int;
  nets : net list;
  obstructions : (int * int * int) list;
      (** blocked grid vertices (column, row, layer index from M2) *)
}

val make :
  ?name:string ->
  ?tech_name:string ->
  ?obstructions:(int * int * int) list ->
  cols:int ->
  rows:int ->
  layers:int ->
  net list ->
  t

(** Structural sanity: dimensions positive, every net has >= 2 pins, every
    pin has >= 1 access point, access points and obstructions in range,
    and no access point is shared between two different nets (a short by
    construction). Returns a description of the first problem found. *)
val validate : t -> (unit, string) Result.t

val num_nets : t -> int
val num_pins : t -> int

val pp : Format.formatter -> t -> unit
