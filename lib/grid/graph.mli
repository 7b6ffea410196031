(** The routing graph G = (V, A) of Section 3.

    Vertices are grid points (column, row, layer), via-shape representative
    vertices (Section 3.2, "Via shape"), and one virtual supersource /
    supersink per pin (Section 3.2, "Pin shape"). Edges are stored
    undirected; the ILP formulation introduces one arc variable per
    direction. Costs are integers: wire edges cost 1 per track step, via
    edges carry the via weight, pin access edges are free (they stand for
    the V12 cut below the routing stack, which every correct routing pays
    identically). *)

type vertex =
  | Grid of { x : int; y : int; z : int }
  | Via_node of { shape : Optrouter_tech.Via_shape.t; x : int; y : int; z : int }
      (** representative vertex of a multi-site via whose lower layer is [z],
          anchored at its minimum corner (x, y) *)
  | Super of { net : int; is_source : bool; pin_name : string }

type edge_kind =
  | Wire of int  (** in-layer segment on layer index [z] *)
  | Via of int  (** single-site via between layers [z] and [z+1] *)
  | Shape_lower of int  (** via-shape edge to a lower-layer member; [z] *)
  | Shape_upper of int  (** via-shape edge to an upper-layer member; [z+1] *)
  | Access  (** supersource/supersink attachment *)

type edge = {
  u : int;
  v : int;
  kind : edge_kind;
  cost : int;
  net_only : int option;  (** [Some k]: only net [k] may route through *)
}

(** Context of one multi-pin net: its virtual terminals in the graph. *)
type net_ctx = {
  n_name : string;
  source : int;  (** supersource vertex *)
  sinks : int array;  (** supersink vertices, one per sink pin *)
}

(** A via-shape instance: the representative vertex plus its member edges,
    needed by the via-shape constraints (5). *)
type via_rep = {
  rep : int;
  shape : Optrouter_tech.Via_shape.t;
  anchor : int * int * int;
  lower_members : int array;
  upper_members : int array;
  lower_edges : int array;  (** edge ids rep<->lower member *)
  upper_edges : int array;
}

type t = {
  clip : Clip.t;
  layers : Optrouter_tech.Layer.t array;
  nverts : int;
  vertex : vertex array;
  edges : edge array;
  adj : (int * int) array array;  (** vertex -> [(edge id, other endpoint)] *)
  nets : net_ctx array;
  via_site : int option array;
      (** single-via edge id at grid position (x, y, z), or [None];
          indexed by {!site_index} *)
  via_reps : via_rep array;
  access_sites : int list array;
      (** access (V12) edge ids landing on each z=0 grid vertex, indexed
          by [y * cols + x]. Pin access consumes a real V12 via, so via
          adjacency restrictions apply between access points too — the
          mechanism behind the paper's N7-9T rule exclusions. *)
  blocked : bool array;  (** grid vertices removed by obstructions *)
  dsa_colors : int;
      (** technology's DSA assembly colors, always populated; only
          consulted when the rules being formulated/checked have
          [Rules.dsa] set *)
  dsa_pitch : int;
      (** Chebyshev conflict distance (tracks) for DSA via coloring *)
}

(** Grid vertex id of (x, y, z); ids of grid vertices precede all others. *)
val grid_vertex : t -> x:int -> y:int -> z:int -> int

(** Index into [via_site] for the via between layers [z] and [z+1] at
    (x, y). *)
val site_index : t -> x:int -> y:int -> z:int -> int

val num_edges : t -> int
val num_nets : t -> int

(** [allowed g k e]: net [k] may route through edge [e] (every edge but
    another net's pin access). *)
val allowed : t -> int -> int -> bool

(** [other_end g e v] is the endpoint of edge [e] that is not [v]. *)
val other_end : t -> edge -> int -> int

(** Build the routing graph for a clip under a rule configuration.

    [via_shapes] lists additional multi-site via shapes to instantiate on
    every via layer (the single-site via is always present unless
    [single_vias] is [false]). [bidirectional] adds the non-preferred
    wire direction on every layer (the paper's layers are always
    unidirectional; this exists for ablation). *)
val build :
  ?via_shapes:Optrouter_tech.Via_shape.t list ->
  ?single_vias:bool ->
  ?bidirectional:bool ->
  tech:Optrouter_tech.Tech.t ->
  rules:Optrouter_tech.Rules.t ->
  Clip.t ->
  t

val pp_vertex : t -> Format.formatter -> int -> unit
