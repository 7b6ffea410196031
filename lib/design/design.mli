(** Synthetic placed designs (the paper's Table 2 testbed).

    The paper implements an open-source AES core and an ARM Cortex M0 with
    Design Compiler and Encounter at several utilisations, then harvests
    routing clips from the routed result. Here the same role is played by a
    seeded synthetic design: instances drawn from the technology's cell
    library with a realistic mix, placed in rows at a target utilisation,
    and connected by a locality-biased random netlist (nets mostly connect
    nearby cells, fanout is geometrically distributed). Two profiles mimic
    the paper's designs: [aes] (~13.5K instances, high logic share) and
    [m0] (~9.2K instances, higher flop share).

    Everything is deterministic given the seed. *)

type profile = {
  pr_name : string;
  instance_count : int;
  period_ns : float;  (** carried as metadata only; there is no timer *)
  flop_share : float;  (** fraction of sequential cells *)
}

val aes : profile
val m0 : profile

type instance = {
  i_name : string;
  cell : Optrouter_cells.Cells.t;
  col : int;  (** leftmost placement column *)
  band : int;  (** placement row index *)
  flipped : bool;  (** odd rows are mirrored vertically, as in real rows *)
}

type conn = { inst : int; pin : string }

type dnet = { dn_name : string; driver : conn; loads : conn list }

type t = {
  d_name : string;
  tech : Optrouter_tech.Tech.t;
  profile : profile;
  target_util : float;
  width_cols : int;
  bands : int;
  instances : instance array;
  nets : dnet array;
  achieved_util : float;
}

(** [generate ?seed profile ~util tech] builds a placed design. [util] is
    the row utilisation in (0, 1]. *)
val generate : ?seed:int -> profile -> util:float -> Optrouter_tech.Tech.t -> t

(** Global (column, row) track coordinates of a connection's access points.
    Rows count M2 tracks from the chip's bottom; flipped bands mirror the
    in-cell offsets. *)
val access_positions : t -> conn -> (int * int) list

(** Physical pin shape of a connection in global nm coordinates. *)
val pin_shape : t -> conn -> Optrouter_geom.Rect.t

(** Chip extent in tracks: (columns, M2 rows). *)
val extent : t -> int * int

val pp : Format.formatter -> t -> unit
