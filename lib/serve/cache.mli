(** Content-addressed result cache for the serve daemon.

    Maps hex digest keys (see [Serve.cache_key]) to opaque payload
    strings through two tiers: an in-memory LRU of bounded capacity and
    an optional on-disk store, one file per key. Disk entries are
    written atomically (temp file + rename, {!Optrouter_report.Report.write_atomic})
    under a versioned header and validated on load — a torn, truncated
    or stale entry is treated as a miss (and removed best-effort), never
    returned as an answer.

    Thread-safe: the in-memory tier (LRU table, clock, counters) is
    guarded by an internal mutex, so [find]/[store]/[stats]/[mem_size]
    may be called from any domain concurrently. Disk I/O happens
    outside the lock — per-key atomic writes and validated reads make
    concurrent disk access safe without serializing solves behind a
    file read — so two domains missing on the same key may both read
    (or both write) that key's file; both outcomes are idempotent. *)

type t

(** Counters since [create]. [mem_hits]/[disk_hits]/[misses] partition
    the [find] calls; [stores] counts successful inserts, [evictions]
    LRU evictions, and [disk_errors] on-disk entries that failed
    validation (each also counted as a miss) or failed to write. *)
type stats = {
  mem_hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  evictions : int;
  disk_errors : int;
}

(** [create ?dir ~capacity ()] — [capacity] (>= 1) bounds the in-memory
    tier; [dir] enables the on-disk tier (created if missing). *)
val create : ?dir:string -> capacity:int -> unit -> t

type tier = Memory | Disk

(** [find t key] is the cached payload and the tier that answered:
    memory first, then disk (a disk hit is promoted into memory). *)
val find : t -> string -> (string * tier) option

(** [store t key payload] inserts into memory (evicting the least
    recently used entry when full) and, when a [dir] was given, writes
    the disk entry atomically. Disk write failures are counted and
    logged, not raised — the cache is an accelerator, never a reason to
    fail a request. *)
val store : t -> string -> string -> unit

val stats : t -> stats

(** Number of entries currently in the memory tier. *)
val mem_size : t -> int
