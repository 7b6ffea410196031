(** Axis-aligned integer rectangles, in nanometers.

    A rectangle is the closed region [\[xlo, xhi\] x \[ylo, yhi\]]. Pin
    shapes, cell outlines and clip windows are all rectangles. *)

type t = { xlo : int; ylo : int; xhi : int; yhi : int }

(** [make ~xlo ~ylo ~xhi ~yhi] requires [xlo <= xhi] and [ylo <= yhi]. *)
val make : xlo:int -> ylo:int -> xhi:int -> yhi:int -> t

(** [of_corners a b] builds the bounding rectangle of two points. *)
val of_corners : Point.t -> Point.t -> t

val width : t -> int
val height : t -> int

(** Area of the closed region, [width * height]. A degenerate (zero width or
    height) rectangle has area 0. *)
val area : t -> int

val center : t -> Point.t
val contains_point : t -> Point.t -> bool

(** [contains outer inner] is true when [inner] lies entirely in [outer]. *)
val contains : t -> t -> bool

val overlaps : t -> t -> bool
val inter : t -> t -> t option
val hull : t -> t -> t

(** [distance a b] is the L1 gap between two rectangles: 0 when they overlap
    or touch, otherwise the sum of the x-gap and y-gap. This matches the
    spacing notion used by the pin-cost metric. *)
val distance : t -> t -> int

val expand : t -> int -> t
val translate : t -> Point.t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
