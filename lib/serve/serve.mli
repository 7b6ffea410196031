(** Routing as a service: the engine behind [optrouter serve].

    A daemon accepts clip-route requests over a Unix-domain socket (or
    TCP), fans each batch's cache misses over a
    {!Optrouter_exec.Pool} of [jobs] domains with bounded-queue
    backpressure, sets their branch-and-bound width once per batch
    ({!Optrouter_exec.Pool.solver_width}: [config.milp.solver_jobs] when
    the misses run one at a time, else 1), enforces
    per-request deadlines through the solver's wall-clock
    [time_limit_s], and answers repeated traffic from a
    content-addressed {!Cache}.

    {2 Wire protocol}

    Line-oriented, one request at a time per connection. A request is
    one text frame:
    {v
    optrouter-request v1
    tech N28-12T        (optional; defaults to the clip's tech line)
    rule 3              (required; RULEn index 1..14)
    deadline 5.0        (optional; seconds, capped by the server)
    nocache             (optional; solve even on a cached key)
    clip <name>
    ...clipfile body...
    endclip
    endrequest
    v}

    Control lines: [optrouter-stats] (returns cache/serve counters) and
    [optrouter-shutdown] (drains, replies [optrouter-bye], exits).

    Every reply is framed as
    {v
    optrouter-response v1
    cache hit-memory|hit-disk|miss|bypass
    elapsed <seconds>
    <payload>
    endresponse
    v}
    (or [optrouter-error v1] / [error <msg>] / [endresponse]). The
    {e payload} — verdict, routing metrics and per-net edge lists — is
    the cached unit: for the same clip x rules x result-relevant params
    it is byte-identical whether answered from cache or by a fresh
    solve. Only {e proven} results (optimal or infeasible) are cached;
    deadline-limited verdicts are never stored, so a cached answer is
    valid under any later deadline. *)

type listener = Unix_socket of string | Tcp of int

type params = {
  cache_dir : string option;  (** on-disk cache tier; [None] = memory only *)
  cache_capacity : int;  (** memory-tier LRU capacity, default 512 *)
  jobs : int;  (** pool worker domains, default 1 (serial) *)
  batch_size : int;  (** max requests handed to the pool at once *)
  queue_capacity : int;
      (** pending-request bound: when full, the daemon stops reading
          from connections until solves drain (backpressure) *)
  time_limit_s : float;
      (** server-side cap (and default) for per-request deadlines *)
  config : Optrouter_core.Optrouter.config;
      (** base routing configuration; the per-request deadline and the
          batch's solver width override its [milp] effort fields, and its
          [milp.solver_jobs] is the width a solve that runs alone gets *)
}

val default_params : params

val make_params :
  ?cache_dir:string ->
  ?cache_capacity:int ->
  ?jobs:int ->
  ?batch_size:int ->
  ?queue_capacity:int ->
  ?time_limit_s:float ->
  ?config:Optrouter_core.Optrouter.config ->
  unit ->
  params

type request = {
  tech : Optrouter_tech.Tech.t;
  rules : Optrouter_tech.Rules.t;
  clip : Optrouter_grid.Clip.t;
  deadline_s : float option;
  no_cache : bool;
}

type cache_status = Hit_memory | Hit_disk | Miss | Bypass

type reply = { status : cache_status; payload : string; elapsed_s : float }

(** {2 Cache key} *)

(** Version tag folded into every key; bump when any canonical component
    ([Tech.canonical], [Rules.canonical],
    [Optrouter.config_fingerprint], {!Optrouter_clipfile.Clipfile.to_string}
    or the payload format) changes shape. *)
val key_version : string

(** [cache_key ~config ~tech ~rules clip] is the stable hex digest of
    the canonical serializations of everything a routing result depends
    on. Configs differing only in effort knobs map to the same key (see
    {!Optrouter_core.Optrouter.config_fingerprint}). *)
val cache_key :
  config:Optrouter_core.Optrouter.config ->
  tech:Optrouter_tech.Tech.t ->
  rules:Optrouter_tech.Rules.t ->
  Optrouter_grid.Clip.t ->
  string

(** Canonical payload text for a routing result: verdict line, then for
    solutions a metrics line and one sorted [net <i> <edge ids>] line
    per net. This is the byte-identity unit of the cache contract. *)
val payload_of_result : Optrouter_core.Optrouter.result -> string

(** {2 Engine} *)

type t

(** [create params] builds the engine: cache (+ disk tier) and a pool of
    [jobs] domains (workers only when [jobs >= 2]). *)
val create : params -> t

(** Release the engine's pool. The engine must not be used afterwards. *)
val destroy : t -> unit

val cache : t -> Cache.t

(** [handle t req] answers one request: cache lookup (unless
    [req.no_cache]), else a solve at [config.milp.solver_jobs] width;
    proven results are stored.
    Runs in the calling domain. [Error] carries a solve failure
    message. *)
val handle : t -> request -> (reply, string) result

(** [handle_batch t reqs] answers a batch, fanning cache misses over the
    pool. Duplicate keys within the batch are solved once. Results come
    back in request order. *)
val handle_batch : t -> request list -> (reply, string) result list

(** [parse_request s] parses one request frame. Any other message,
    such as a JSON line, is an error ([bad request header ...]), which
    the daemon answers with an error frame. *)
val parse_request : string -> (request, string) result

(** {2 Daemon} *)

(** [run t listeners] binds the listeners and serves until an
    [optrouter-shutdown] message arrives (drains pending requests
    first). Unix-socket paths are unlinked on exit.

    [run] sets the process's SIGPIPE disposition to ignore, so a client
    that hangs up before its reply arrives makes that write fail with
    EPIPE instead of killing the process; the daemon drops the reply and
    keeps serving. The setting stays after [run] returns. *)
val run : t -> listener list -> unit

(** {2 Client helpers} (used by the CLI, the tests and perfbench) *)

(** Render a request frame from raw clipfile text. *)
val text_request :
  ?tech:string ->
  ?deadline_s:float ->
  ?no_cache:bool ->
  rule:int ->
  string ->
  string

val shutdown_line : string
val stats_line : string

(** [connect ?retries listener] connects, retrying [retries] times
    (default 50) at 100 ms intervals while the endpoint does not accept
    yet — covers the daemon's startup window. *)
val connect : ?retries:int -> listener -> Unix.file_descr

(** [roundtrip fd msg] writes [msg] and reads until a complete response
    frame ([endresponse] or [optrouter-bye]) arrives; returns the frame
    text. *)
val roundtrip : Unix.file_descr -> string -> string

(** The wire status line for a cache status, e.g. ["cache hit-memory"]. *)
val status_line : cache_status -> string

(** Split a response frame into its cache-status line and payload; the
    payload of an error frame is the error message. *)
val parse_response :
  string -> (cache_status option * string, string) result
