(* Tests for the serve subsystem: the content-addressed result cache
   (memory LRU + on-disk tier with corruption recovery), the engine's
   cache-hit byte-identity contract, deadline semantics, the wire
   protocol, and the daemon loop end to end over a Unix socket. *)

module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Clip = Optrouter_grid.Clip
module Clipfile = Optrouter_clipfile.Clipfile
module Optrouter = Optrouter_core.Optrouter
module Milp = Optrouter_ilp.Milp
module Serve = Optrouter_serve.Serve
module Cache = Optrouter_serve.Cache

let pin name access = { Clip.p_name = name; access; shape = None }

let two_pin name p1 p2 =
  { Clip.n_name = name; pins = [ pin (name ^ "s") [ p1 ]; pin (name ^ "t") [ p2 ] ] }

let eol_clip =
  Clip.make ~name:"eol" ~cols:4 ~rows:1 ~layers:2
    [ two_pin "a" (0, 0) (1, 0); two_pin "b" (2, 0) (3, 0) ]

let fast_config =
  Optrouter.make_config
    ~milp:(Milp.make_params ~max_nodes:5_000 ~time_limit_s:20.0 ())
    ()

let fresh_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let spit path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let slurp path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let entry_path dir key = Filename.concat dir (key ^ ".cache")

(* ------------------------------------------------------------------ *)
(* Cache: memory tier                                                  *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 () in
  Cache.store c "k1" "p1";
  Cache.store c "k2" "p2";
  Alcotest.(check int) "two entries" 2 (Cache.mem_size c);
  (match Cache.find c "k1" with
  | Some ("p1", Cache.Memory) -> ()
  | Some _ | None -> Alcotest.fail "k1 should hit in memory");
  (* k2 is now least recently used; storing k3 evicts it *)
  Cache.store c "k3" "p3";
  Alcotest.(check int) "still two entries" 2 (Cache.mem_size c);
  Alcotest.(check bool) "k2 evicted" true (Cache.find c "k2" = None);
  (match Cache.find c "k1" with
  | Some ("p1", Cache.Memory) -> ()
  | Some _ | None -> Alcotest.fail "k1 survives the eviction");
  let s = Cache.stats c in
  Alcotest.(check int) "stores" 3 s.Cache.stores;
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Alcotest.(check int) "mem hits" 2 s.Cache.mem_hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses

let test_cache_restore_refreshes () =
  let c = Cache.create ~capacity:2 () in
  Cache.store c "k1" "p1";
  Cache.store c "k2" "p2";
  (* re-storing k1 refreshes its slot instead of evicting anything *)
  Cache.store c "k1" "p1";
  Cache.store c "k3" "p3";
  Alcotest.(check bool) "k1 refreshed, k2 evicted" true
    (Cache.find c "k1" <> None && Cache.find c "k2" = None)

(* ------------------------------------------------------------------ *)
(* Cache: disk tier                                                    *)
(* ------------------------------------------------------------------ *)

let test_cache_disk_roundtrip () =
  let dir = fresh_dir "optrouter-cache" in
  let payload = "verdict routed\ncost 3 wirelength 3 vias 0\nnet 0 1 2\n" in
  let c1 = Cache.create ~dir ~capacity:4 () in
  Cache.store c1 "aaaa" payload;
  Alcotest.(check bool) "entry file exists" true
    (Sys.file_exists (entry_path dir "aaaa"));
  (* a fresh cache over the same dir answers from disk, then memory *)
  let c2 = Cache.create ~dir ~capacity:4 () in
  (match Cache.find c2 "aaaa" with
  | Some (p, Cache.Disk) -> Alcotest.(check string) "disk payload" payload p
  | Some (_, Cache.Memory) -> Alcotest.fail "first lookup cannot be a memory hit"
  | None -> Alcotest.fail "disk entry not found");
  (match Cache.find c2 "aaaa" with
  | Some (_, Cache.Memory) -> ()
  | Some (_, Cache.Disk) | None -> Alcotest.fail "disk hit was not promoted")

let test_cache_disk_corruption_recovery () =
  let dir = fresh_dir "optrouter-cache" in
  let writer = Cache.create ~dir ~capacity:8 () in
  let payload = "verdict routed\nnet 0 5 6 7\n" in
  List.iter (fun k -> Cache.store writer k payload) [ "t1"; "t2"; "t3" ];
  (* truncate t1's payload *)
  let p1 = entry_path dir "t1" in
  let raw = slurp p1 in
  spit p1 (String.sub raw 0 (String.length raw - 3));
  (* append trailing garbage to t2 (a torn rewrite) *)
  let p2 = entry_path dir "t2" in
  spit p2 (slurp p2 ^ "garbage");
  (* t4: stale file under the wrong key (copied from t3) *)
  let p4 = entry_path dir "t4" in
  spit p4 (slurp (entry_path dir "t3"));
  (* t5: wrong header version *)
  let p5 = entry_path dir "t5" in
  spit p5 "# optrouter cache v99\nkey t5\nbytes 2\nhi";
  let c = Cache.create ~dir ~capacity:8 () in
  List.iter
    (fun (key, path, why) ->
      Alcotest.(check bool) (why ^ " is a miss") true (Cache.find c key = None);
      Alcotest.(check bool) (why ^ " removed") false (Sys.file_exists path))
    [
      ("t1", p1, "truncated entry");
      ("t2", p2, "torn entry");
      ("t4", p4, "key-mismatched entry");
      ("t5", p5, "wrong-version entry");
    ];
  Alcotest.(check int) "disk errors counted" 4 (Cache.stats c).Cache.disk_errors;
  (* the intact entry still loads *)
  (match Cache.find c "t3" with
  | Some (p, Cache.Disk) -> Alcotest.(check string) "t3 payload intact" payload p
  | Some (_, Cache.Memory) | None -> Alcotest.fail "t3 should load from disk")

let test_cache_hammer () =
  (* 4 domains hammer an 8-entry cache with overlapping keys: the mutex
     must keep the LRU table, clock and counters coherent under real
     contention, with the disk tier adding promotion traffic. Payloads
     are derived from the key, so any cross-key corruption shows up as a
     wrong payload, not just a crash. *)
  let dir = fresh_dir "optrouter-cache" in
  let c = Cache.create ~dir ~capacity:8 () in
  let keys = Array.init 24 (fun i -> Printf.sprintf "h%02d" i) in
  let payload key = "payload-of-" ^ key in
  let rounds = 200 in
  let finds_per_domain = ref 0 in
  (* precompute one domain's schedule length so the partition check
     below can count total [find] calls exactly *)
  let worker seed () =
    let finds = ref 0 in
    for round = 0 to rounds - 1 do
      let key = keys.((seed + (round * 7)) mod Array.length keys) in
      (match Cache.find c key with
      | Some (p, _) ->
        if p <> payload key then failwith ("corrupt payload for " ^ key)
      | None -> Cache.store c key (payload key));
      incr finds;
      (* second, always-resident key keeps the hit path hot *)
      let hot = keys.(seed mod 4) in
      (match Cache.find c hot with
      | Some (p, _) ->
        if p <> payload hot then failwith ("corrupt payload for " ^ hot)
      | None -> Cache.store c hot (payload hot));
      incr finds
    done;
    !finds
  in
  finds_per_domain := 2 * rounds;
  let domains = List.init 4 (fun seed -> Domain.spawn (worker seed)) in
  let find_calls = List.fold_left (fun a d -> a + Domain.join d) 0 domains in
  Alcotest.(check int) "every find call ran" (4 * !finds_per_domain) find_calls;
  let s = Cache.stats c in
  Alcotest.(check int)
    "hits + misses partition the find calls" find_calls
    (s.Cache.mem_hits + s.Cache.disk_hits + s.Cache.misses);
  Alcotest.(check int) "every miss was answered by a store" s.Cache.misses
    s.Cache.stores;
  Alcotest.(check int) "no disk errors" 0 s.Cache.disk_errors;
  Alcotest.(check bool)
    (Printf.sprintf "memory tier within capacity (%d)" (Cache.mem_size c))
    true
    (Cache.mem_size c <= 8);
  (* quiescent: every key answers with its own payload *)
  Array.iter
    (fun key ->
      match Cache.find c key with
      | Some (p, _) -> Alcotest.(check string) ("payload " ^ key) (payload key) p
      | None -> Alcotest.fail ("key lost after hammer: " ^ key))
    keys

(* ------------------------------------------------------------------ *)
(* Cache key                                                           *)
(* ------------------------------------------------------------------ *)

let test_cache_key_effort_independent () =
  let key config =
    Serve.cache_key ~config ~tech:Tech.n28_12t ~rules:(Rules.rule 4) eol_clip
  in
  let slow =
    Optrouter.make_config
      ~milp:(Milp.make_params ~max_nodes:50 ~time_limit_s:0.5 ~solver_jobs:4 ())
      ()
  in
  Alcotest.(check string)
    "effort knobs (nodes/time/width) do not change the key" (key fast_config)
    (key slow);
  let other_rule =
    Serve.cache_key ~config:fast_config ~tech:Tech.n28_12t
      ~rules:(Rules.rule 6) eol_clip
  in
  Alcotest.(check bool) "rule changes the key" true (key fast_config <> other_rule);
  let other_tech =
    Serve.cache_key ~config:fast_config ~tech:Tech.n28_8t
      ~rules:(Rules.rule 4) eol_clip
  in
  Alcotest.(check bool) "tech changes the key" true (key fast_config <> other_tech)

let test_cache_key_v3_new_dimensions () =
  (* The canonical rule string grew objective/dsa suffixes in this format
     generation; the version tag must have been bumped exactly once. *)
  Alcotest.(check string) "key version" "optrouter serve key v3"
    Serve.key_version;
  let key rules =
    Serve.cache_key ~config:fast_config ~tech:Tech.n28_12t ~rules eol_clip
  in
  let base = Rules.rule 4 in
  Alcotest.(check bool) "objective changes the key" true
    (key base <> key (Rules.with_objective Rules.Via_count base));
  Alcotest.(check bool) "via weight changes the key" true
    (key (Rules.with_objective (Rules.Via_weighted 2.0) base)
    <> key (Rules.with_objective (Rules.Via_weighted 3.0) base));
  Alcotest.(check bool) "DSA rule changes the key" true
    (key base <> key (Rules.rule 12))

(* ------------------------------------------------------------------ *)
(* Engine: hits, bypass, deadlines                                     *)
(* ------------------------------------------------------------------ *)

let with_engine ?(jobs = 1) ?cache_dir ?(time_limit_s = 20.0) ?(config = fast_config) f =
  let t =
    Serve.create
      (Serve.make_params ?cache_dir ~jobs ~time_limit_s ~config ())
  in
  Fun.protect ~finally:(fun () -> Serve.destroy t) (fun () -> f t)

let request ?deadline_s ?(no_cache = false) ?(rules = Rules.rule 4) clip =
  { Serve.tech = Tech.n28_12t; rules; clip; deadline_s; no_cache }

let reply_exn label = function
  | Ok (r : Serve.reply) -> r
  | Error e -> Alcotest.failf "%s: %s" label e

let test_hit_byte_identity () =
  with_engine (fun t ->
      let r1 = reply_exn "first" (Serve.handle t (request eol_clip)) in
      Alcotest.(check bool) "first is a miss" true (r1.Serve.status = Serve.Miss);
      let r2 = reply_exn "second" (Serve.handle t (request eol_clip)) in
      Alcotest.(check bool) "second hits memory" true
        (r2.Serve.status = Serve.Hit_memory);
      Alcotest.(check string) "hit payload byte-identical" r1.Serve.payload
        r2.Serve.payload;
      (* and both equal a fresh direct solve under the same result-relevant
         configuration *)
      let fresh =
        Serve.payload_of_result
          (Optrouter.route ~config:fast_config ~tech:Tech.n28_12t
             ~rules:(Rules.rule 4) eol_clip)
      in
      Alcotest.(check string) "equals a direct solve" fresh r1.Serve.payload)

let test_bypass_solves_but_stores () =
  with_engine (fun t ->
      let r1 = reply_exn "bypass" (Serve.handle t (request ~no_cache:true eol_clip)) in
      Alcotest.(check bool) "bypass status" true (r1.Serve.status = Serve.Bypass);
      (* the bypass solve still refreshed the cache for later callers *)
      let r2 = reply_exn "after" (Serve.handle t (request eol_clip)) in
      Alcotest.(check bool) "subsequent request hits" true
        (r2.Serve.status = Serve.Hit_memory);
      Alcotest.(check string) "same payload" r1.Serve.payload r2.Serve.payload)

let test_batch_dedup_single_solve () =
  with_engine (fun t ->
      let reqs = [ request eol_clip; request eol_clip; request eol_clip ] in
      let replies = List.map (reply_exn "batch") (Serve.handle_batch t reqs) in
      (match replies with
      | a :: rest ->
        List.iter
          (fun (r : Serve.reply) ->
            Alcotest.(check string) "same payload across batch" a.Serve.payload
              r.Serve.payload)
          rest
      | [] -> Alcotest.fail "empty batch result");
      (* duplicates within the batch were answered by one solve/store *)
      Alcotest.(check int) "one store" 1 (Cache.stats (Serve.cache t)).Cache.stores)

let test_deadline_hits_cached_proof () =
  with_engine (fun t ->
      let r1 = reply_exn "no deadline" (Serve.handle t (request eol_clip)) in
      (* a proven result is valid under any later deadline: the deadline is
         not part of the key, so this hits *)
      let r2 =
        reply_exn "deadline 5s" (Serve.handle t (request ~deadline_s:5.0 eol_clip))
      in
      Alcotest.(check bool) "deadline request hits" true
        (r2.Serve.status = Serve.Hit_memory);
      Alcotest.(check string) "same proven payload" r1.Serve.payload
        r2.Serve.payload)

let test_limit_never_cached () =
  (* An engine whose cap is an already-expired deadline can only produce
     Limit verdicts; those must never enter the cache. *)
  with_engine ~time_limit_s:1e-9 (fun t ->
      let r1 = reply_exn "limited" (Serve.handle t (request eol_clip)) in
      Alcotest.(check bool) "limit verdict" true
        (String.length r1.Serve.payload >= 13
        && String.sub r1.Serve.payload 0 13 = "verdict limit");
      let r2 = reply_exn "again" (Serve.handle t (request eol_clip)) in
      Alcotest.(check bool) "still a miss (nothing was cached)" true
        (r2.Serve.status = Serve.Miss);
      Alcotest.(check int) "no stores" 0
        (Cache.stats (Serve.cache t)).Cache.stores)

let lag_config =
  Optrouter.make_config ~solve_mode:Optrouter.Lagrangian
    ~milp:(Milp.make_params ~max_nodes:5_000 ~time_limit_s:20.0 ())
    ()

let test_solve_mode_changes_key () =
  (* Same clip, same everything — except the solve mode. The two modes
     answer with different result semantics, so they must never share a
     cache slot. *)
  let key config =
    Serve.cache_key ~config ~tech:Tech.n28_12t ~rules:(Rules.rule 4) eol_clip
  in
  Alcotest.(check bool) "exact and lagrangian keys differ" true
    (key fast_config <> key lag_config)

let test_lagrangian_never_cached () =
  (* Near-optimal results carry no proof: caching one would freeze a
     heuristic answer forever. Every request must re-solve. *)
  with_engine ~config:lag_config (fun t ->
      let r1 = reply_exn "first" (Serve.handle t (request ~rules:(Rules.rule 1) eol_clip)) in
      Alcotest.(check bool) "near-optimal payload" true
        (String.length r1.Serve.payload >= 20
        && String.sub r1.Serve.payload 0 20 = "verdict near-optimal");
      let r2 = reply_exn "second" (Serve.handle t (request ~rules:(Rules.rule 1) eol_clip)) in
      Alcotest.(check bool) "still a miss (nothing was cached)" true
        (r2.Serve.status = Serve.Miss);
      Alcotest.(check int) "no stores" 0
        (Cache.stats (Serve.cache t)).Cache.stores;
      Alcotest.(check string) "re-solves are byte-identical anyway"
        r1.Serve.payload r2.Serve.payload)

(* ------------------------------------------------------------------ *)
(* qcheck: cache hits are byte-identical to fresh solves at -j 2       *)
(* ------------------------------------------------------------------ *)

(* Same generator shape as test_exec's reuse-identity property: shuffled
   grid positions paired into two-pin nets. *)
let random_clip (cols, rows, seed) =
  let rng = Random.State.make [| seed; cols; rows |] in
  let positions = Array.init (cols * rows) (fun i -> (i mod cols, i / cols)) in
  for i = Array.length positions - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = positions.(i) in
    positions.(i) <- positions.(j);
    positions.(j) <- t
  done;
  let nets = 1 + Random.State.int rng 2 in
  let net i =
    two_pin (Printf.sprintf "n%d" i) positions.(2 * i) positions.((2 * i) + 1)
  in
  Clip.make
    ~name:(Printf.sprintf "rand-%dx%d-%d" cols rows seed)
    ~cols ~rows ~layers:2 (List.init nets net)

let qcheck_hit_identity_j2 =
  QCheck.Test.make ~count:6
    ~name:"serve cache hits byte-identical to fresh solves (-j 2)"
    QCheck.(triple (int_range 3 4) (int_range 2 3) (int_range 0 10_000))
    (fun spec ->
      let clip = random_clip spec in
      with_engine ~jobs:2 (fun t ->
          (* duplicate keys inside one batch: one solve feeds both *)
          match Serve.handle_batch t [ request clip; request clip ] with
          | [ Ok a; Ok b ] ->
            let hit = reply_exn "hit" (Serve.handle t (request clip)) in
            let fresh =
              Serve.payload_of_result
                (Optrouter.route ~config:fast_config ~tech:Tech.n28_12t
                   ~rules:(Rules.rule 4) clip)
            in
            a.Serve.payload = b.Serve.payload
            && hit.Serve.status = Serve.Hit_memory
            && hit.Serve.payload = a.Serve.payload
            && fresh = a.Serve.payload
          | _ -> false))

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

let test_text_request_roundtrip () =
  let msg =
    Serve.text_request ~deadline_s:2.5 ~no_cache:true ~rule:4
      (Clipfile.to_string eol_clip)
  in
  match Serve.parse_request msg with
  | Error e -> Alcotest.fail e
  | Ok req ->
    Alcotest.(check string) "rule" "RULE4" req.Serve.rules.Rules.name;
    Alcotest.(check (option (float 1e-9))) "deadline" (Some 2.5)
      req.Serve.deadline_s;
    Alcotest.(check bool) "no_cache" true req.Serve.no_cache;
    Alcotest.(check string) "clip round-trips" (Clipfile.to_string eol_clip)
      (Clipfile.to_string req.Serve.clip)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let test_json_request () =
  let msg =
    Printf.sprintf
      "{\"rule\": 6, \"clip\": \"%s\", \"deadline_s\": 1.5, \"no_cache\": true}"
      (json_escape (Clipfile.to_string eol_clip))
  in
  match Serve.parse_request msg with
  | Error e -> Alcotest.fail e
  | Ok req ->
    Alcotest.(check string) "rule" "RULE6" req.Serve.rules.Rules.name;
    Alcotest.(check (option (float 1e-9))) "deadline" (Some 1.5)
      req.Serve.deadline_s;
    Alcotest.(check bool) "no_cache" true req.Serve.no_cache;
    Alcotest.(check string) "clip round-trips" (Clipfile.to_string eol_clip)
      (Clipfile.to_string req.Serve.clip)

let test_request_parse_errors () =
  let clip_text = Clipfile.to_string eol_clip in
  List.iter
    (fun (label, msg) ->
      Alcotest.(check bool) label true
        (Result.is_error (Serve.parse_request msg)))
    [
      ("unknown frame", "hello\n");
      ("missing rule", "optrouter-request v1\n" ^ clip_text ^ "endrequest\n");
      ("out-of-range rule", Serve.text_request ~rule:99 clip_text);
      ( "unknown tech",
        Serve.text_request ~tech:"N3-XYZ" ~rule:4 clip_text );
      ("bad deadline", Serve.text_request ~deadline_s:(-1.0) ~rule:4 clip_text);
      ("empty body", Serve.text_request ~rule:4 "");
      ("bad json", "{\"rule\": 4}\n");
    ]

(* [float_of_string_opt] parses "nan"/"inf", so the deadline header needs
   its own finite-positive gate — a NaN deadline sails past ordered
   comparisons (NaN <= 0.0 is false) and would poison the solver budget. *)
let test_deadline_token_validation () =
  let clip_text = Clipfile.to_string eol_clip in
  let raw token =
    Printf.sprintf "optrouter-request v1\nrule 4\ndeadline %s\n%sendrequest\n"
      token clip_text
  in
  List.iter
    (fun token ->
      match Serve.parse_request (raw token) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "deadline %S must be a protocol error" token)
    [ "nan"; "-nan"; "inf"; "infinity"; "-inf"; "0"; "0.0"; "-3.5"; "later" ];
  (* JSON requests share the same gate via [finish_request]. *)
  List.iter
    (fun js ->
      let msg =
        Printf.sprintf "{\"rule\": 4, \"clip\": \"%s\", \"deadline_s\": %s}"
          (json_escape clip_text) js
      in
      match Serve.parse_request msg with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "JSON deadline %s must be a protocol error" js)
    [ "-1.5"; "0" ];
  (* The boundary stays permissive: any finite positive value is fine. *)
  match Serve.parse_request (raw "1e-9") with
  | Ok req ->
    Alcotest.(check (option (float 1e-18))) "tiny but valid" (Some 1e-9)
      req.Serve.deadline_s
  | Error e -> Alcotest.fail e

let test_parse_response_frames () =
  (match
     Serve.parse_response
       "optrouter-response v1\ncache hit-memory\nelapsed 0.000123\nverdict \
        routed\nendresponse\n"
   with
  | Ok (Some Serve.Hit_memory, payload) ->
    Alcotest.(check string) "payload" "verdict routed\n" payload
  | Ok _ -> Alcotest.fail "wrong status/payload"
  | Error e -> Alcotest.fail e);
  (match Serve.parse_response "optrouter-error v1\nerror boom\nendresponse\n" with
  | Error e -> Alcotest.(check string) "error text" "boom" e
  | Ok _ -> Alcotest.fail "error frame must parse as Error");
  match Serve.parse_response "optrouter-bye\n" with
  | Ok (None, _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "bye frame"

(* ------------------------------------------------------------------ *)
(* Daemon end to end                                                   *)
(* ------------------------------------------------------------------ *)

let test_daemon_end_to_end () =
  let dir = fresh_dir "optrouter-serve" in
  let sock = Filename.concat dir "d.sock" in
  let params =
    Serve.make_params ~cache_dir:(Filename.concat dir "cache") ~time_limit_s:20.0
      ~config:fast_config ()
  in
  let t = Serve.create params in
  let daemon = Domain.spawn (fun () -> Serve.run t [ Serve.Unix_socket sock ]) in
  let fd = Serve.connect (Serve.Unix_socket sock) in
  let msg = Serve.text_request ~rule:4 (Clipfile.to_string eol_clip) in
  let first = Serve.parse_response (Serve.roundtrip fd msg) in
  let second = Serve.parse_response (Serve.roundtrip fd msg) in
  (match (first, second) with
  | Ok (Some Serve.Miss, p1), Ok (Some Serve.Hit_memory, p2) ->
    Alcotest.(check string) "identical payloads over the wire" p1 p2
  | Ok (s1, _), Ok (s2, _) ->
    Alcotest.failf "expected miss then memory hit, got %s then %s"
      (match s1 with Some s -> Serve.status_line s | None -> "none")
      (match s2 with Some s -> Serve.status_line s | None -> "none")
  | Error e, _ | _, Error e -> Alcotest.fail e);
  let stats = Serve.roundtrip fd (Serve.stats_line ^ "\n") in
  Alcotest.(check string) "stats frame"
    "optrouter-response v1\n\
     cache stats\n\
     elapsed 0.000000\n\
     serve telemetry: 2 requests, cache 1 hit (1 memory, 0 disk) / 1 miss \
     (50% hit rate)\n\
    \                 1 store, 0 evictions\n\
     endresponse\n"
    stats;
  let bye = Serve.roundtrip fd (Serve.shutdown_line ^ "\n") in
  Alcotest.(check bool) "daemon says bye" true
    (String.length bye >= 13 && String.sub bye 0 13 = "optrouter-bye");
  Domain.join daemon;
  Serve.destroy t;
  Alcotest.(check bool) "socket unlinked on exit" false (Sys.file_exists sock)

(* ------------------------------------------------------------------ *)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "serve"
    [
      ( "cache",
        [
          Alcotest.test_case "LRU hit/miss/eviction" `Quick test_cache_lru;
          Alcotest.test_case "re-store refreshes recency" `Quick
            test_cache_restore_refreshes;
          Alcotest.test_case "disk round trip + promotion" `Quick
            test_cache_disk_roundtrip;
          Alcotest.test_case "corrupted entries recover as misses" `Quick
            test_cache_disk_corruption_recovery;
          Alcotest.test_case "4-domain hammer" `Slow test_cache_hammer;
        ] );
      ( "key",
        [
          Alcotest.test_case "effort-independent, input-sensitive" `Quick
            test_cache_key_effort_independent;
          Alcotest.test_case "v3: objective/DSA dimensions keyed" `Quick
            test_cache_key_v3_new_dimensions;
        ] );
      ( "engine",
        [
          Alcotest.test_case "cache hit is byte-identical" `Quick
            test_hit_byte_identity;
          Alcotest.test_case "no-cache bypass still stores" `Quick
            test_bypass_solves_but_stores;
          Alcotest.test_case "batch dedup solves once" `Quick
            test_batch_dedup_single_solve;
          Alcotest.test_case "proven result valid under any deadline" `Quick
            test_deadline_hits_cached_proof;
          Alcotest.test_case "limit verdicts never cached" `Quick
            test_limit_never_cached;
          Alcotest.test_case "solve mode changes the key" `Quick
            test_solve_mode_changes_key;
          Alcotest.test_case "lagrangian results never cached" `Quick
            test_lagrangian_never_cached;
          qtest qcheck_hit_identity_j2;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "text request round trip" `Quick
            test_text_request_roundtrip;
          Alcotest.test_case "json request" `Quick test_json_request;
          Alcotest.test_case "request parse errors" `Quick
            test_request_parse_errors;
          Alcotest.test_case "deadline token validation" `Quick
            test_deadline_token_validation;
          Alcotest.test_case "response frames" `Quick test_parse_response_frames;
        ] );
      ( "daemon",
        [ Alcotest.test_case "end to end over a socket" `Quick test_daemon_end_to_end ] );
    ]
