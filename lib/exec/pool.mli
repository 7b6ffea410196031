(** A reusable pool of worker domains for embarrassingly parallel sweeps.

    The evaluation workload — one independent ILP solve per (clip, rule)
    pair — fans out over a fixed set of worker domains through a shared
    work queue. Results always come back in task-index order, so a
    parallel map is a drop-in replacement for [List.map]: callers see
    byte-identical output regardless of the number of domains.

    A pool with fewer than two domains never spawns workers; every [map]
    then runs serially in the calling domain, as does any map of a single
    task. This keeps [?pool] plumbing uniform: passing [create ~domains:1]
    is exactly the serial path, and callers treat a missing pool as that
    pool.

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
    domains when the pool is parallel and there are several tasks) and
    returns the outcomes in task order. Each task's exception is captured
    in its own [Error] slot, so one failed solve never kills the sweep.

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

(** [solver_width pool ~tasks want] is the branch-and-bound width (worker
    domains per solve) of each of [tasks] solves fanned out over [pool]:
    [want] when the map runs them one at a time (a pool of fewer than
    two domains, or a single task), else 1. Every fan-out of solves sets
    its width once by this rule, so a [-j N] fan-out runs at most N busy
    domains and its solver effort is the same on every run. Widening
    pooled solves into whatever domains look idle cost more than it won:
    on a 2-core host the all-rule sweep of 3,640 solves took 34–36 s that
    way at [-j 2 --solver-jobs 2] against 27.5–29 s at [-j 2]. *)
val solver_width : t -> tasks:int -> int -> int

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
