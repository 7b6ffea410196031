(** A reusable pool of worker domains for embarrassingly parallel sweeps.

    The evaluation workload — one independent ILP solve per (clip, rule)
    pair — fans out over a fixed set of worker domains through a shared
    work queue. Results always come back in task-index order, so a
    parallel map is a drop-in replacement for [List.map]: callers see
    byte-identical output regardless of the number of domains.

    A pool with fewer than two domains never spawns workers; every [map]
    then runs serially in the calling domain. This keeps [?pool] plumbing
    uniform: passing [create ~domains:1] is exactly the serial path.

    The pool is not reentrant: task functions must not call [map] /
    [map_result] on the pool executing them (they would deadlock waiting
    for workers that are all busy running their parents). *)

type t

(** [create ~domains] spawns [domains] worker domains when [domains >= 2]
    and none otherwise (the calling domain only collects results, it does
    not run tasks). [domains] is the requested solve concurrency, capped
    at 128. It is intentionally not clamped to
    {!Domain.recommended_domain_count}: oversubscribed domains time-slice
    gracefully, while clamping would silently disable the parallel path
    on small hosts. *)
val create : domains:int -> t

(** Effective concurrency of the pool: the number of worker domains, or 1
    for a serial pool. *)
val domains : t -> int

(** [map_result pool f tasks] runs [f] on every task (across the worker
    domains when the pool is parallel) and returns the outcomes in task
    order. Each task's exception is captured in its own [Error] slot, so
    one failed solve never kills the sweep.

    [on_done] is invoked in the {e calling} domain — the pool's
    collector — once per completed task, in completion order (which is
    nondeterministic under parallelism). It needs no synchronisation of
    its own; use it for progress reporting. *)
val map_result :
  ?on_done:(int -> ('b, exn) result -> unit) ->
  t ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn) result list

(** [map pool f tasks] is [map_result] with failures re-raised: the first
    captured exception in task order propagates after every task has
    finished. Equivalent to [List.map f tasks] up to evaluation order. *)
val map : ?on_done:(int -> ('b, exn) result -> unit) -> t -> ('a -> 'b) -> 'a list -> 'b list

(** Stop the workers and join them. The pool must not be used afterwards;
    [shutdown] is idempotent. *)
val shutdown : t -> unit

(** [with_pool ~domains f] runs [f] with a fresh pool and always shuts it
    down, including on exception. *)
val with_pool : domains:int -> (t -> 'a) -> 'a

(** Solve concurrency requested by the environment: the [OPTROUTER_JOBS]
    variable, clamped to at least 1; unset means 1. An unparsable or
    non-positive value also means 1, with a warning naming the rejected
    value on the [exec] source of {!Optrouter_report.Report.Log}. *)
val env_jobs : unit -> int

(** Per-solve (inner, branch-and-bound) concurrency requested by the
    environment: the [OPTROUTER_SOLVER_JOBS] variable, with exactly the
    parsing and fallback rules of {!env_jobs}. *)
val env_solver_jobs : unit -> int

(** A lock-free budget of spare domain slots, the glue of the two-level
    scheduler: the sweep gives each pool a budget of [domains] slots, a
    task holds one slot while it runs and may claim up to
    [solver_jobs - 1] extra slots for its inner branch-and-bound workers.
    While the pool is saturated every slot is held and solves run
    single-worker; at the sweep tail the freed slots flow to the solves
    that start while domains idle — exactly when widening helps. *)
module Budget : sig
  type b

  (** [create ~slots] (negative values behave as 0). *)
  val create : slots:int -> b

  (** The slot count the budget was created with. *)
  val total : b -> int

  (** Currently unclaimed slots; advisory under concurrency. *)
  val available : b -> int

  (** [acquire b want] claims up to [want] slots and returns how many it
      got (0 when none are free or [want <= 0]). Never blocks, never
      over-grants: the sum of outstanding grants never exceeds the
      budget. *)
  val acquire : b -> int -> int

  (** [release b k] returns [k] slots ([k <= 0] is a no-op). Callers must
      release exactly what they acquired. *)
  val release : b -> int -> unit

  (** [with_width b ~want f] runs [f width] where [width >= 1] is the
      solver width granted by the budget: one base slot plus up to
      [want - 1] extra slots, widened only when the base slot itself was
      granted. All grants are released when [f] returns or raises. This
      is the two-level scheduling step shared by the sweep engine and the
      serve daemon: while every slot is held tasks run single-wide; idle
      slots turn into extra solver workers. *)
  val with_width : b -> want:int -> (int -> 'a) -> 'a
end
