module Clip = Optrouter_grid.Clip
module Route = Optrouter_grid.Route
module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Clipfile = Optrouter_clipfile.Clipfile
module Optrouter = Optrouter_core.Optrouter
module Milp = Optrouter_ilp.Milp
module Pool = Optrouter_exec.Pool
module Report = Optrouter_report.Report
module Stable = Optrouter_hash.Stable

let log_src = "serve"

type listener = Unix_socket of string | Tcp of int

type params = {
  cache_dir : string option;
  cache_capacity : int;
  jobs : int;
  batch_size : int;
  queue_capacity : int;
  time_limit_s : float;
  config : Optrouter.config;
}

let default_params =
  {
    cache_dir = None;
    cache_capacity = 512;
    jobs = 1;
    batch_size = 8;
    queue_capacity = 64;
    time_limit_s = 60.0;
    config = Optrouter.default_config;
  }

let make_params ?cache_dir ?(cache_capacity = default_params.cache_capacity)
    ?(jobs = default_params.jobs) ?(batch_size = default_params.batch_size)
    ?(queue_capacity = default_params.queue_capacity)
    ?(time_limit_s = default_params.time_limit_s)
    ?(config = default_params.config) () =
  {
    cache_dir;
    cache_capacity;
    jobs = max 1 jobs;
    batch_size = max 1 batch_size;
    queue_capacity = max 1 queue_capacity;
    time_limit_s;
    config;
  }

type request = {
  tech : Tech.t;
  rules : Rules.t;
  clip : Clip.t;
  deadline_s : float option;
  no_cache : bool;
}

type cache_status = Hit_memory | Hit_disk | Miss | Bypass

type reply = { status : cache_status; payload : string; elapsed_s : float }

(* ------------------------------------------------------------------ *)
(* Cache key                                                           *)
(* ------------------------------------------------------------------ *)

(* v1 -> v2: the config fingerprint grew a solve_mode line, so every
   pre-existing entry was keyed under a format that can no longer be
   reproduced — bumping the version retires them wholesale.
   v2 -> v3: Rules.canonical grew conditional [;dsa=...] / [;objective=...]
   suffixes (the DSA via-coloring family and via-weighted objectives).
   Legacy configurations still canonicalise byte-identically, but the key
   space now distinguishes entries the v2 server could never have produced
   — the bump keeps the version honest about the format generation. *)
let key_version = "optrouter serve key v3"

let cache_key ~config ~tech ~rules clip =
  Stable.digest_hex
    (String.concat "\n"
       [
         key_version;
         Tech.canonical tech;
         Rules.canonical rules;
         Optrouter.config_fingerprint config;
         Clipfile.to_string clip;
       ])

(* ------------------------------------------------------------------ *)
(* Result payload                                                      *)
(* ------------------------------------------------------------------ *)

(* The payload is the byte-identity unit of the cache contract: the
   verdict and the routing itself (metrics + per-net edge sets, edge ids
   sorted so list order inside a net is canonical). Solver-effort stats
   (nodes, iterations, elapsed) are deliberately outside the payload —
   they describe the solve, not the answer, and legitimately vary with
   width and load. *)
let payload_of_solution (sol : Route.solution) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "cost %d wirelength %d vias %d\n" sol.Route.metrics.cost
       sol.Route.metrics.wirelength sol.Route.metrics.vias);
  Array.iter
    (fun (r : Route.net_route) ->
      let edges = List.sort_uniq Int.compare r.Route.edges in
      Buffer.add_string buf
        (Printf.sprintf "net %d%s\n" r.Route.net
           (String.concat ""
              (List.map (fun e -> " " ^ string_of_int e) edges))))
    sol.Route.routes;
  Buffer.contents buf

let payload_of_result (r : Optrouter.result) =
  match r.Optrouter.verdict with
  | Optrouter.Routed sol -> "verdict routed\n" ^ payload_of_solution sol
  | Optrouter.Unroutable -> "verdict unroutable\n"
  | Optrouter.Limit (Some sol) ->
    "verdict limit-incumbent\n" ^ payload_of_solution sol
  | Optrouter.Limit None -> "verdict limit\n"
  | Optrouter.Near_optimal sol ->
    "verdict near-optimal\n" ^ payload_of_solution sol

(* Only proven results enter the cache: an optimum or an infeasibility
   proof holds under any deadline, while a Limit verdict is an artefact
   of this request's budget — caching it would let a short deadline
   poison the answers of later, patient callers. Near_optimal routings
   are likewise never cached: they are feasible but unproven, and a
   longer-running decomposition may legitimately return a better one.
   An extra belt-and-braces guard refuses to cache ANY verdict from a
   Lagrangian-mode solve — even its Unroutable proof rides on the mode's
   reachability check rather than the ILP, and keeping the mode fully
   cache-inert makes the contract easy to audit. *)
let cacheable ~(config : Optrouter.config) (r : Optrouter.result) =
  match config.Optrouter.solve_mode with
  | Optrouter.Lagrangian -> false
  | Optrouter.Exact -> (
    match r.Optrouter.verdict with
    | Optrouter.Routed _ | Optrouter.Unroutable -> true
    | Optrouter.Limit _ | Optrouter.Near_optimal _ -> false)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  params : params;
  cache : Cache.t;
  pool : Pool.t;
  mutable served : int;
}

let create params =
  let cache =
    Cache.create ?dir:params.cache_dir ~capacity:params.cache_capacity ()
  in
  { params; cache; pool = Pool.create ~domains:params.jobs; served = 0 }

let destroy t = Pool.shutdown t.pool
let cache t = t.cache

let config_for t req ~width =
  let c = t.params.config in
  let deadline =
    match req.deadline_s with
    | None -> t.params.time_limit_s
    | Some d -> Float.min d t.params.time_limit_s
  in
  let milp =
    {
      c.Optrouter.milp with
      Milp.time_limit_s = Some deadline;
      solver_jobs = width;
    }
  in
  { c with Optrouter.milp }

let timed_solve t req ~width =
  let t0 = Unix.gettimeofday () in
  let result =
    Optrouter.route
      ~config:(config_for t req ~width)
      ~tech:req.tech ~rules:req.rules req.clip
  in
  (result, Unix.gettimeofday () -. t0)

(* Answer a batch. Cache lookups and stores stay in the calling domain
   (the cache itself is mutex-guarded, but keeping them here preserves
   the batch's dedup window); only the miss solves fan out over the
   pool. Duplicate keys within a batch are solved once and the payload
   shared — with the bounded queue in front, this is what turns a
   thundering herd on one clip into a single solve. *)
let handle_batch t reqs =
  t.served <- t.served + List.length reqs;
  let lookup req =
    let key =
      cache_key ~config:t.params.config ~tech:req.tech ~rules:req.rules
        req.clip
    in
    if req.no_cache then `Solve (req, key, Bypass)
    else
      let t0 = Unix.gettimeofday () in
      match Cache.find t.cache key with
      | Some (payload, Cache.Memory) ->
        `Hit (payload, Hit_memory, Unix.gettimeofday () -. t0)
      | Some (payload, Cache.Disk) ->
        `Hit (payload, Hit_disk, Unix.gettimeofday () -. t0)
      | None -> `Solve (req, key, Miss)
  in
  let looked = List.map lookup reqs in
  (* Dedup the solves by key; the representative request of each key is
     solved once. *)
  let index = Hashtbl.create 8 in
  let jobs = ref [] in
  let njobs = ref 0 in
  let job_for key req =
    match Hashtbl.find_opt index key with
    | Some i -> i
    | None ->
      let i = !njobs in
      Hashtbl.replace index key i;
      jobs := (key, req) :: !jobs;
      incr njobs;
      i
  in
  let plan =
    List.map
      (function
        | `Hit _ as h -> h
        | `Solve (req, key, status) -> `Job (job_for key req, status))
      looked
  in
  let job_list = List.rev !jobs in
  let outcomes =
    (* One branch-and-bound width for every miss of the batch. *)
    let width =
      Pool.solver_width t.pool ~tasks:!njobs
        t.params.config.Optrouter.milp.Milp.solver_jobs
    in
    Pool.map_result t.pool
      (fun (key, req) ->
        let result, wall = timed_solve t req ~width in
        (key, result, wall))
      job_list
  in
  (* Store proven results — in this (collector) domain. *)
  let outcomes =
    Array.of_list
      (List.map
         (function
           | Ok (key, result, wall) ->
             let payload = payload_of_result result in
             if cacheable ~config:t.params.config result then
               Cache.store t.cache key payload;
             Ok (payload, wall)
           | Error exn -> Error (Printexc.to_string exn))
         outcomes)
  in
  List.map
    (function
      | `Hit (payload, status, elapsed_s) -> Ok { status; payload; elapsed_s }
      | `Job (i, status) -> (
        match outcomes.(i) with
        | Ok (payload, elapsed_s) -> Ok { status; payload; elapsed_s }
        | Error msg -> Error msg))
    plan

let handle t req =
  match handle_batch t [ req ] with
  | [ r ] -> r
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

let request_header = "optrouter-request v1"
let shutdown_line = "optrouter-shutdown"
let stats_line = "optrouter-stats"

(* The headers, the deadline included, are already checked; parse and
   validate the clip body, then resolve the rule and the tech. *)
let finish_request ~tech_name ~deadline_s ~no_cache ~rule body =
  let ( let* ) = Result.bind in
  let* clip = Clipfile.one_of_string body in
  let* () = Clip.validate clip in
  let* rules =
    match Rules.rule rule with
    | r -> Ok r
    | exception Invalid_argument msg -> Error msg
  in
  let name = Option.value tech_name ~default:clip.Clip.tech_name in
  let* tech =
    match Tech.by_name name with
    | tech -> Ok tech
    | exception Not_found -> Error (Printf.sprintf "unknown tech %S" name)
  in
  let* () =
    if Rules.applicable ~tech_name:tech.Tech.name rules then Ok ()
    else
      Error
        (Printf.sprintf "%s is not evaluable on %s" rules.Rules.name
           tech.Tech.name)
  in
  Ok { tech; rules; clip; deadline_s; no_cache }

let parse_request msg =
  let lines = String.split_on_char '\n' msg in
  match lines with
  | header :: rest when String.trim header = request_header ->
    let rec headers ~tech_name ~rule ~deadline_s ~no_cache = function
      | [] -> Error "missing clip body"
      | line :: more as remaining -> (
        let tokens =
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun tok -> tok <> "")
        in
        match tokens with
        | [] -> headers ~tech_name ~rule ~deadline_s ~no_cache more
        | "clip" :: _ -> (
          (* body: everything from here on, minus the frame trailer *)
          let body_lines =
            List.filter
              (fun l -> String.trim l <> "endrequest")
              remaining
          in
          match rule with
          | None -> Error "missing rule header"
          | Some rule ->
            finish_request ~tech_name ~deadline_s ~no_cache ~rule
              (String.concat "\n" body_lines))
        | [ "tech"; name ] ->
          headers ~tech_name:(Some name) ~rule ~deadline_s ~no_cache more
        | [ "rule"; n ] -> (
          match int_of_string_opt n with
          | Some n -> headers ~tech_name ~rule:(Some n) ~deadline_s ~no_cache more
          | None -> Error (Printf.sprintf "bad rule %S" n))
        | [ "deadline"; d ] -> (
          (* [float_of_string_opt] happily parses "nan" and "inf", and a
             NaN deadline would slip through comparisons (NaN <= 0.0 is
             false), so only finite positive values pass. *)
          match float_of_string_opt d with
          | Some f when Float.is_finite f && f > 0.0 ->
            headers ~tech_name ~rule ~deadline_s:(Some f) ~no_cache more
          | Some _ | None -> Error (Printf.sprintf "bad deadline %S" d))
        | [ "nocache" ] ->
          headers ~tech_name ~rule ~deadline_s ~no_cache:true more
        | tok :: _ -> Error (Printf.sprintf "unknown request header %S" tok))
    in
    headers ~tech_name:None ~rule:None ~deadline_s:None ~no_cache:false rest
  | first :: _ ->
    Error (Printf.sprintf "bad request header %S" (String.trim first))
  | [] -> Error "empty request"

(* ------------------------------------------------------------------ *)
(* Wire framing                                                        *)
(* ------------------------------------------------------------------ *)

let response_header = "optrouter-response v1"
let error_header = "optrouter-error v1"
let bye_line = "optrouter-bye"
let end_line = "endresponse"

let status_line = function
  | Hit_memory -> "cache hit-memory"
  | Hit_disk -> "cache hit-disk"
  | Miss -> "cache miss"
  | Bypass -> "cache bypass"

let frame_reply r =
  Printf.sprintf "%s\n%s\nelapsed %.6f\n%s%s\n" response_header
    (status_line r.status) r.elapsed_s r.payload end_line

let one_line msg = String.map (fun c -> if c = '\n' then ' ' else c) msg

let frame_error msg =
  Printf.sprintf "%s\nerror %s\n%s\n" error_header (one_line msg) end_line

let plural n = if n = 1 then "" else "s"

(* The cache counters as two text lines: requests, hits split memory /
   disk, misses and hit rate; then the store / eviction churn and any
   recovered disk errors. *)
let render_stats ~requests (s : Cache.stats) =
  let hits = s.Cache.mem_hits + s.Cache.disk_hits in
  let looked = hits + s.Cache.misses in
  let rate =
    if looked > 0 then float_of_int hits /. float_of_int looked else 0.0
  in
  Printf.sprintf
    "serve telemetry: %d request%s, cache %d hit%s (%d memory, %d disk) / %d \
     miss%s (%.0f%% hit rate)\n"
    requests (plural requests) hits (plural hits) s.Cache.mem_hits
    s.Cache.disk_hits s.Cache.misses
    (if s.Cache.misses = 1 then "" else "es")
    (100.0 *. rate)
  ^ Printf.sprintf "                 %d store%s, %d eviction%s%s\n"
      s.Cache.stores (plural s.Cache.stores) s.Cache.evictions
      (plural s.Cache.evictions)
      (if s.Cache.disk_errors > 0 then
         Printf.sprintf ", %d disk error%s recovered" s.Cache.disk_errors
           (plural s.Cache.disk_errors)
       else "")

let frame_stats t =
  Printf.sprintf "%s\ncache stats\nelapsed 0.000000\n%s%s\n" response_header
    (render_stats ~requests:t.served (Cache.stats t.cache))
    end_line

let parse_response frame =
  let lines = String.split_on_char '\n' frame in
  let rec payload_of acc = function
    | [] -> String.concat "\n" (List.rev acc)
    | l :: _ when String.trim l = end_line ->
      String.concat "" (List.rev_map (fun l -> l ^ "\n") acc)
    | l :: rest -> payload_of (l :: acc) rest
  in
  match lines with
  | first :: rest when String.trim first = response_header -> (
    match rest with
    | status :: more ->
      let status =
        match String.trim status with
        | "cache hit-memory" -> Some Hit_memory
        | "cache hit-disk" -> Some Hit_disk
        | "cache miss" -> Some Miss
        | "cache bypass" -> Some Bypass
        | _ -> None
      in
      let body =
        match more with
        | elapsed :: payload
          when String.length (String.trim elapsed) >= 7
               && String.sub (String.trim elapsed) 0 7 = "elapsed" ->
          payload
        | payload -> payload
      in
      Ok (status, payload_of [] body)
    | [] -> Error "truncated response")
  | first :: rest when String.trim first = error_header -> (
    match rest with
    | e :: _ when String.length (String.trim e) > 6 ->
      Error (String.sub (String.trim e) 6 (String.length (String.trim e) - 6))
    | _ -> Error "unknown server error")
  | first :: _ when String.trim first = bye_line -> Ok (None, bye_line)
  | _ -> Error "unrecognised response frame"

(* ------------------------------------------------------------------ *)
(* Daemon                                                              *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  mutable residue : string;  (** bytes after the last newline *)
  mutable req_lines : string list option;
      (** reversed lines of an in-progress text request frame *)
}

(* Split freshly read bytes into complete wire messages. Request frames
   span [optrouter-request v1] .. [endrequest]; control messages are
   single lines. Unrecognised single lines become messages too —
   [parse_request] turns them into error replies, keeping protocol errors
   on the same response channel as everything else. *)
let feed conn data =
  let data = conn.residue ^ data in
  let msgs = ref [] in
  let rec go = function
    | [] -> conn.residue <- ""
    | [ tail ] -> conn.residue <- tail
    | line :: rest ->
      (match conn.req_lines with
      | Some acc ->
        if String.trim line = "endrequest" then begin
          msgs := String.concat "\n" (List.rev (line :: acc)) :: !msgs;
          conn.req_lines <- None
        end
        else conn.req_lines <- Some (line :: acc)
      | None ->
        let tl = String.trim line in
        if tl = "" then ()
        else if tl = request_header then conn.req_lines <- Some [ line ]
        else msgs := line :: !msgs);
      go rest
  in
  go (String.split_on_char '\n' data);
  List.rev !msgs

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  (* A peer that hung up mid-reply is its own problem; the daemon must
     not die on EPIPE ([run] ignores SIGPIPE, so the write fails here
     instead of killing the process). *)
  try go 0
  with Unix.Unix_error (_, _, _) -> ()

let bind_listener = function
  | Unix_socket path ->
    if Sys.file_exists path then Sys.remove path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, Some path)
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    (fd, None)

let run t listeners =
  (* The default SIGPIPE disposition kills the process on a write to a
     hung-up peer before [write_all] can see EPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listening = List.map bind_listener listeners in
  let listen_fds = List.map fst listening in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let queue : (conn * string) Queue.t = Queue.create () in
  let stopping = ref false in
  let close_conn c =
    Hashtbl.remove conns c.fd;
    try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()
  in
  let on_message c msg =
    let tl = String.trim msg in
    if tl = shutdown_line then begin
      (* Acknowledge immediately; pending work drains before exit. *)
      write_all c.fd (bye_line ^ "\n");
      stopping := true
    end
    else if tl = stats_line then write_all c.fd (frame_stats t)
    else Queue.add (c, msg) queue
  in
  let process_batch () =
    let items = ref [] in
    while List.length !items < t.params.batch_size && not (Queue.is_empty queue) do
      items := Queue.pop queue :: !items
    done;
    let items = List.rev !items in
    let parsed = List.map (fun (c, raw) -> (c, parse_request raw)) items in
    let batch =
      List.filter_map (function _, Ok req -> Some req | _, Error _ -> None) parsed
    in
    let replies = ref (handle_batch t batch) in
    List.iter
      (fun (c, p) ->
        match p with
        | Error e -> write_all c.fd (frame_error e)
        | Ok _ -> (
          match !replies with
          | reply :: rest ->
            replies := rest;
            (match reply with
            | Ok r -> write_all c.fd (frame_reply r)
            | Error e -> write_all c.fd (frame_error e))
          | [] -> (* handle_batch is length-preserving *) assert false))
      parsed
  in
  let step () =
    if not (Queue.is_empty queue) then process_batch ()
    else begin
      (* Backpressure: with the pending queue at capacity nothing is
         read — new bytes sit in the kernel buffers (and eventually stall
         the clients) until solves drain. *)
      let room = Queue.length queue < t.params.queue_capacity in
      let conn_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
      let rd =
        (if room && not !stopping then listen_fds else [])
        @ (if room then conn_fds else [])
      in
      match Unix.select rd [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
        List.iter
          (fun fd ->
            if List.mem fd listen_fds then begin
              match Unix.accept fd with
              | cfd, _ ->
                Hashtbl.replace conns cfd
                  { fd = cfd; residue = ""; req_lines = None }
              | exception Unix.Unix_error (_, _, _) -> ()
            end
            else
              match Hashtbl.find_opt conns fd with
              | None -> ()
              | Some c -> (
                let buf = Bytes.create 65536 in
                match Unix.read fd buf 0 65536 with
                | 0 -> close_conn c
                | n ->
                  List.iter (on_message c) (feed c (Bytes.sub_string buf 0 n))
                | exception Unix.Unix_error (_, _, _) -> close_conn c))
          readable
    end
  in
  Report.Log.info ~src:log_src (fun () ->
      Printf.sprintf "serving on %s"
        (String.concat ", "
           (List.map
              (function
                | Unix_socket p -> "unix:" ^ p
                | Tcp p -> Printf.sprintf "tcp:127.0.0.1:%d" p)
              listeners)));
  while (not !stopping) || not (Queue.is_empty queue) do
    step ()
  done;
  Hashtbl.fold (fun _ c acc -> c :: acc) conns [] |> List.iter close_conn;
  List.iter
    (fun (fd, path) ->
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      match path with
      | Some p -> ( try Sys.remove p with Sys_error _ -> ())
      | None -> ())
    listening

(* ------------------------------------------------------------------ *)
(* Client helpers                                                      *)
(* ------------------------------------------------------------------ *)

let text_request ?tech ?deadline_s ?(no_cache = false) ~rule clip_text =
  let b = Buffer.create (String.length clip_text + 64) in
  Buffer.add_string b (request_header ^ "\n");
  Option.iter (fun t -> Buffer.add_string b (Printf.sprintf "tech %s\n" t)) tech;
  Buffer.add_string b (Printf.sprintf "rule %d\n" rule);
  Option.iter
    (fun d -> Buffer.add_string b (Printf.sprintf "deadline %g\n" d))
    deadline_s;
  if no_cache then Buffer.add_string b "nocache\n";
  Buffer.add_string b clip_text;
  if clip_text = "" || clip_text.[String.length clip_text - 1] <> '\n' then
    Buffer.add_char b '\n';
  Buffer.add_string b "endrequest\n";
  Buffer.contents b

let connect ?(retries = 50) listener =
  let domain, addr =
    match listener with
    | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp port ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  in
  let rec go n =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception
        Unix.Unix_error
          ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.ECONNRESET), _, _)
      when n > 0 ->
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      Unix.sleepf 0.1;
      go (n - 1)
  in
  go retries

let roundtrip fd msg =
  write_all fd msg;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let complete () =
    let s = Buffer.contents buf in
    String.ends_with ~suffix:(end_line ^ "\n") s
    || String.ends_with ~suffix:(bye_line ^ "\n") s
  in
  let rec go () =
    if complete () then Buffer.contents buf
    else
      match Unix.read fd chunk 0 4096 with
      | 0 -> Buffer.contents buf
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()
