(** Minimal binary min-heap priority queue on float keys with [int]
    payloads (vertex ids, for the routers' Dijkstra searches).

    Keys and payloads are stored in unboxed [float array]/[int array]
    storage, so an entry never costs a heap block: a [pop] allocates
    nothing, and callers that need the key read it first with
    [min_key].

    Supports lazy decrease-key by re-insertion: callers skip stale entries
    on [pop] by checking their own distance table.

    Equal keys pop in a fixed order: the one that a given sequence of
    [push]/[pop] calls determines through the heap's sift rules, which
    do not depend on the payloads. The maze router and the Lagrangian
    pricing break distance ties by this order, so their results stay
    byte-identical only while it holds. *)

type t

val create : unit -> t
val is_empty : t -> bool
val length : t -> int

(** [clear q] empties [q] in O(1), keeping its storage for reuse. *)
val clear : t -> unit

val push : t -> float -> int -> unit

(** [min_key q] is the smallest key in [q], the one the next [pop]
    removes. Raises [Not_found] when empty. *)
val min_key : t -> float

(** [pop q] removes the minimum-key entry and returns its payload.
    Raises [Not_found] when empty. *)
val pop : t -> int
