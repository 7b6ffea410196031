(* Tests for the domain pool and its wiring into the sweep: parallel maps
   must be drop-in replacements for serial ones (same results, same
   order), exceptions must stay confined to their task, and a parallel
   rule sweep must reproduce the serial entry list exactly. *)

module Pool = Optrouter_exec.Pool
module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Clip = Optrouter_grid.Clip
module Sweep = Optrouter_eval.Sweep
module Optrouter = Optrouter_core.Optrouter
module Milp = Optrouter_ilp.Milp
module Log = Optrouter_report.Report.Log

(* ------------------------------------------------------------------ *)
(* Pool basics                                                         *)
(* ------------------------------------------------------------------ *)

let test_map_empty () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map pool (fun x -> x) []))

let test_map_order () =
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "task-index order" (List.map succ xs)
        (Pool.map pool succ xs))

let test_map_serial_pool () =
  (* domains:1 spawns no workers; map runs in the calling domain. *)
  Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "serial pool reports 1 domain" 1 (Pool.domains pool);
      let xs = [ 5; 3; 1 ] in
      Alcotest.(check (list int))
        "same as List.map" (List.map (fun x -> x * 2) xs)
        (Pool.map pool (fun x -> x * 2) xs))

let test_map_reusable () =
  (* One pool, several maps: workers survive between batches. *)
  Pool.with_pool ~domains:2 (fun pool ->
      for i = 1 to 5 do
        let xs = List.init (10 * i) Fun.id in
        Alcotest.(check (list int))
          (Printf.sprintf "batch %d" i)
          (List.map (fun x -> x + i) xs)
          (Pool.map pool (fun x -> x + i) xs)
      done)

exception Boom of int

let test_exception_isolation () =
  Pool.with_pool ~domains:3 (fun pool ->
      let f x = if x mod 3 = 0 then raise (Boom x) else x * 10 in
      let results = Pool.map_result pool f (List.init 10 Fun.id) in
      List.iteri
        (fun i r ->
          match r with
          | Ok v when i mod 3 <> 0 ->
            Alcotest.(check int) "ok slot" (i * 10) v
          | Error (Boom v) when i mod 3 = 0 ->
            Alcotest.(check int) "error slot" i v
          | Ok _ -> Alcotest.fail "expected Error for multiple of 3"
          | Error e -> Alcotest.fail ("unexpected " ^ Printexc.to_string e))
        results;
      (* the pool survives failed tasks *)
      Alcotest.(check (list int)) "pool still works" [ 2; 4 ]
        (Pool.map pool (fun x -> x * 2) [ 1; 2 ]))

let test_map_reraises_first_error () =
  Pool.with_pool ~domains:2 (fun pool ->
      match Pool.map pool (fun x -> if x >= 2 then raise (Boom x) else x) [ 0; 1; 2; 3 ] with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom v ->
        (* first failure in task order, regardless of completion order *)
        Alcotest.(check int) "first by index" 2 v)

let test_on_done_collector () =
  Pool.with_pool ~domains:3 (fun pool ->
      let seen = ref [] in
      let xs = List.init 20 Fun.id in
      let _ =
        Pool.map_result pool
          ~on_done:(fun i r ->
            match r with
            | Ok v -> seen := (i, v) :: !seen
            | Error _ -> Alcotest.fail "no errors expected")
          (fun x -> x * x)
          xs
      in
      Alcotest.(check int) "one callback per task" 20 (List.length !seen);
      List.iter
        (fun (i, v) -> Alcotest.(check int) "callback sees task's result" (i * i) v)
        !seen)

let test_env_jobs () =
  Unix.putenv "OPTROUTER_JOBS" "7";
  Alcotest.(check int) "parses" 7 (Pool.env_jobs ());
  Unix.putenv "OPTROUTER_JOBS" "bogus";
  Alcotest.(check int) "unparsable means serial" 1 (Pool.env_jobs ());
  Unix.putenv "OPTROUTER_JOBS" "0";
  Alcotest.(check int) "clamped to 1" 1 (Pool.env_jobs ())

let test_env_solver_jobs () =
  Unix.putenv "OPTROUTER_SOLVER_JOBS" "4";
  Alcotest.(check int) "parses" 4 (Pool.env_solver_jobs ());
  Unix.putenv "OPTROUTER_SOLVER_JOBS" "nope";
  Alcotest.(check int) "unparsable means serial" 1 (Pool.env_solver_jobs ());
  Unix.putenv "OPTROUTER_SOLVER_JOBS" "1"

(* [f ()] with Report.Log rendering at [level] into a list, returned
   beside the result as (level, source, message) events; the silent
   library default is restored afterwards. Pool workers may log too, so
   the list is locked. *)
let with_log_events level f =
  let events = ref [] and lock = Mutex.create () in
  Log.set_sink
    (Some
       (fun lvl ~src msg ->
         Mutex.protect lock (fun () -> events := (lvl, src, msg) :: !events)));
  Log.set_level (Some level);
  Fun.protect
    ~finally:(fun () ->
      Log.set_level None;
      Log.set_sink None)
    (fun () ->
      let r = f () in
      (r, Mutex.protect lock (fun () -> List.rev !events)))

let test_env_jobs_warns_on_rejects () =
  (* Regression: invalid or non-positive OPTROUTER_JOBS values were
     silently coerced to 1; they must now warn, naming the value. *)
  let jobs, events =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "OPTROUTER_JOBS" "1")
      (fun () ->
        with_log_events Log.Warn (fun () ->
            List.map
              (fun v ->
                Unix.putenv "OPTROUTER_JOBS" v;
                Pool.env_jobs ())
              [ "0"; "-3"; "bogus"; "4" ]))
  in
  Alcotest.(check (list int)) "rejected values run serially" [ 1; 1; 1; 4 ]
    jobs;
  Alcotest.(check (list string)) "one warning per rejected value, none else"
    [
      "OPTROUTER_JOBS=0 is not a positive job count; running serially";
      "OPTROUTER_JOBS=-3 is not a positive job count; running serially";
      "OPTROUTER_JOBS=\"bogus\" is not an integer; running serially";
    ]
    (List.filter_map
       (fun (l, src, msg) ->
         if (l, src) = (Log.Warn, "exec") then Some msg else None)
       events)

(* ------------------------------------------------------------------ *)
(* qcheck: Pool.map f == List.map f                                    *)
(* ------------------------------------------------------------------ *)

let qcheck_map_equals_list_map =
  QCheck.Test.make ~count:50 ~name:"Pool.map f = List.map f"
    QCheck.(list small_int)
    (fun xs ->
      let f x = (x * 31) + 7 in
      Pool.with_pool ~domains:3 (fun pool -> Pool.map pool f xs) = List.map f xs)

(* ------------------------------------------------------------------ *)
(* Sweep determinism                                                   *)
(* ------------------------------------------------------------------ *)

let pin name access = { Clip.p_name = name; access; shape = None }

let two_pin name p1 p2 =
  { Clip.n_name = name; pins = [ pin (name ^ "s") [ p1 ]; pin (name ^ "t") [ p2 ] ] }

(* Small deterministic clips covering routable, rule-impacted and
   rule-infeasible cases. *)
let seed_clips =
  [
    Clip.make ~name:"eol" ~cols:4 ~rows:1 ~layers:2
      [ two_pin "a" (0, 0) (1, 0); two_pin "b" (2, 0) (3, 0) ];
    Clip.make ~name:"hop" ~cols:3 ~rows:2 ~layers:2 [ two_pin "a" (0, 0) (0, 1) ];
    Clip.make ~name:"cross" ~cols:3 ~rows:3 ~layers:2
      [ two_pin "a" (0, 0) (2, 2); two_pin "b" (2, 0) (0, 2) ];
  ]

let sweep_rules = [ Rules.rule 4; Rules.rule 6; Rules.rule 8 ]

let fast_config =
  Optrouter.make_config
    ~milp:(Milp.make_params ~max_nodes:5_000 ~time_limit_s:20.0 ())
    ()

(* fast_config with every ILP solve requesting a 2-wide branch-and-bound
   search. *)
let wide_config =
  Optrouter.make_config
    ~milp:(Milp.make_params ~max_nodes:5_000 ~time_limit_s:20.0 ~solver_jobs:2 ())
    ()

let entry_t =
  let pp ppf (e : Sweep.entry) =
    Format.fprintf ppf "%s/%s d=%.0f cost=%s base=%d" e.Sweep.clip_name
      e.Sweep.rule_name
      (Sweep.delta_value e.Sweep.delta)
      (match e.Sweep.cost with Some c -> string_of_int c | None -> "-")
      e.Sweep.base_cost
  in
  Alcotest.testable pp ( = )

(* fast_config's budget in the decomposition mode. *)
let lag_config =
  Optrouter.make_config ~solve_mode:Optrouter.Lagrangian
    ~milp:(Milp.make_params ~time_limit_s:20.0 ())
    ()

(* The reference: each clip swept on its own, serially. *)
let serial_entries ?(config = fast_config) () =
  List.concat_map
    (fun clip ->
      Sweep.sweep ~config ~tech:Tech.n28_12t ~rules:sweep_rules [ clip ])
    seed_clips

let test_parallel_sweep_deterministic () =
  List.iter
    (fun (mode, config) ->
      let serial = serial_entries ~config () in
      Alcotest.(check bool) (mode ^ " serial sweep nonempty") true (serial <> []);
      List.iter
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              let parallel =
                Sweep.sweep ~config ~pool ~tech:Tech.n28_12t ~rules:sweep_rules
                  seed_clips
              in
              Alcotest.(check (list entry_t))
                (Printf.sprintf "%s identical at %d domains" mode domains)
                serial parallel))
        [ 2; 4 ])
    [ ("exact", fast_config); ("lagrangian", lag_config) ]

let test_sweep_solver_jobs_identity () =
  (* Solver width must not change entries: a sweep whose solves request
     2-wide branch and bound reproduces the 1-wide list, serially (every
     solve 2-wide) and under a 2-domain pool (every solve 1-wide by the
     width rule). *)
  let serial = serial_entries () in
  let wide_serial =
    List.concat_map
      (fun clip ->
        Sweep.sweep ~config:wide_config ~tech:Tech.n28_12t ~rules:sweep_rules
          [ clip ])
      seed_clips
  in
  Alcotest.(check (list entry_t)) "2-wide solves, no pool" serial wide_serial;
  Pool.with_pool ~domains:2 (fun pool ->
      let wide_pooled =
        Sweep.sweep ~config:wide_config ~pool ~tech:Tech.n28_12t
          ~rules:sweep_rules seed_clips
      in
      Alcotest.(check (list entry_t)) "2-wide solves under a 2-domain pool"
        serial wide_pooled)

(* The width rule, read from the telemetry: solves that run one at a
   time get [solver_jobs], with or without a 1-domain pool; solves side
   by side on a 2-domain pool run 1-wide, so their effort repeats. *)
let test_sweep_width_rule () =
  let run pool =
    let telemetry = ref Sweep.empty_telemetry in
    ignore
      (Sweep.sweep ~config:wide_config ?pool ~telemetry ~tech:Tech.n28_12t
         ~rules:sweep_rules seed_clips);
    !telemetry
  in
  Alcotest.(check int) "no pool: 2 workers" 2 (run None).Sweep.peak_workers;
  Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "1-domain pool: 2 workers" 2
        (run (Some pool)).Sweep.peak_workers);
  Pool.with_pool ~domains:2 (fun pool ->
      let a = run (Some pool) in
      let b = run (Some pool) in
      Alcotest.(check int) "2-domain pool: 1 worker" 1 a.Sweep.peak_workers;
      Alcotest.(check int) "same nodes on every run" a.Sweep.nodes
        b.Sweep.nodes;
      Alcotest.(check int) "same simplex iterations on every run"
        a.Sweep.simplex_iterations b.Sweep.simplex_iterations)

let test_sweep_telemetry_and_on_entry () =
  Pool.with_pool ~domains:2 (fun pool ->
      let telemetry = ref Sweep.empty_telemetry in
      let seen = ref 0 in
      let entries, events =
        with_log_events Log.Info (fun () ->
            Sweep.sweep ~config:fast_config ~pool ~telemetry
              ~on_entry:(fun _ -> incr seen)
              ~tech:Tech.n28_12t ~rules:sweep_rules seed_clips)
      in
      Alcotest.(check int) "on_entry fires once per entry" (List.length entries)
        !seen;
      Alcotest.(check int) "one sweep info event per entry"
        (List.length entries)
        (List.length
           (List.filter (fun (l, src, _) -> (l, src) = (Log.Info, "sweep"))
              events));
      let t = !telemetry in
      Alcotest.(check int) "solves = baselines + rule solves"
        (List.length seed_clips + List.length entries)
        t.Sweep.solves;
      Alcotest.(check bool) "nodes counted" true (t.Sweep.nodes > 0);
      Alcotest.(check bool) "wall time counted" true (t.Sweep.wall_s > 0.0);
      Alcotest.(check int) "no failures" 0 t.Sweep.failures;
      Alcotest.(check bool) "renders" true
        (String.length (Sweep.render_telemetry t) > 0))

(* ------------------------------------------------------------------ *)
(* Baseline reuse: entries must not depend on the seed_reuse knob      *)
(* ------------------------------------------------------------------ *)

let no_reuse_config =
  Optrouter.make_config
    ~milp:(Milp.make_params ~max_nodes:5_000 ~time_limit_s:20.0 ())
    ~seed_reuse:false ()

let test_sweep_reuse_identity () =
  let run config pool =
    Sweep.sweep ~config ?pool ~tech:Tech.n28_12t ~rules:sweep_rules seed_clips
  in
  let reference = run fast_config None in
  Alcotest.(check bool) "reference sweep nonempty" true (reference <> []);
  Alcotest.(check (list entry_t))
    "serial, reuse off" reference (run no_reuse_config None);
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check (list entry_t))
        "-j 2, reuse on" reference
        (run fast_config (Some pool));
      Alcotest.(check (list entry_t))
        "-j 2, reuse off" reference
        (run no_reuse_config (Some pool)))

(* Random small clips for the reuse-identity property: shuffle the grid
   positions with a seeded RNG and pair them up into two-pin nets. *)
let random_clip (cols, rows, seed) =
  let rng = Random.State.make [| seed; cols; rows |] in
  let positions =
    Array.init (cols * rows) (fun i -> (i mod cols, i / cols))
  in
  for i = Array.length positions - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = positions.(i) in
    positions.(i) <- positions.(j);
    positions.(j) <- t
  done;
  let nets = 1 + Random.State.int rng 2 in
  let net i = two_pin (Printf.sprintf "n%d" i) positions.(2 * i) positions.((2 * i) + 1) in
  Clip.make
    ~name:(Printf.sprintf "rand-%dx%d-%d" cols rows seed)
    ~cols ~rows ~layers:2
    (List.init nets net)

(* ------------------------------------------------------------------ *)
(* Stress: solves at widths 1-4 + shared cache traffic                 *)
(* ------------------------------------------------------------------ *)

module Serve = Optrouter_serve.Serve
module Cache = Optrouter_serve.Cache

(* Four domains, one per width 1-4, race [Milp] solves while finding and
   storing the payloads in one shared [Cache] (capacity 2 over 3 keys,
   so evictions and disk promotions happen under contention). The
   determinism contract makes this checkable: whatever the width and
   whichever tier answers, every payload must be byte-identical to a
   serial solve. *)
let qcheck_width_cache_stress =
  QCheck.Test.make ~count:2 ~name:"width 1-4 solves share one cache"
    QCheck.(pair (int_range 3 4) (int_range 0 10_000))
    (fun (cols, seed) ->
      let clip = random_clip (cols, 2, seed) in
      let payload config rules =
        Serve.payload_of_result
          (Optrouter.route ~config ~tech:Tech.n28_12t ~rules clip)
      in
      let references = List.map (payload fast_config) sweep_rules in
      let dir = Filename.temp_file "optrouter-stress" "" in
      Sys.remove dir;
      Sys.mkdir dir 0o755;
      let cache = Cache.create ~dir ~capacity:2 () in
      let key rules =
        Serve.cache_key ~config:fast_config ~tech:Tech.n28_12t ~rules clip
      in
      let worker width () =
        let config =
          Optrouter.make_config
            ~milp:
              (Milp.make_params ~max_nodes:5_000 ~time_limit_s:20.0
                 ~solver_jobs:width ())
            ()
        in
        List.concat_map
          (fun _ ->
            List.map
              (fun rules ->
                match Cache.find cache (key rules) with
                | Some (p, _) -> p
                | None ->
                  let p = payload config rules in
                  Cache.store cache (key rules) p;
                  p)
              sweep_rules)
          [ 1; 2 ]
      in
      let domains =
        List.map (fun width -> Domain.spawn (worker width)) [ 1; 2; 3; 4 ]
      in
      let rounds = List.map Domain.join domains in
      let disk_errors = (Cache.stats cache).Cache.disk_errors in
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir;
      let expected = references @ references in
      disk_errors = 0
      && List.for_all (fun payloads -> payloads = expected) rounds)

let qcheck_reuse_identity =
  QCheck.Test.make ~count:6
    ~name:"sweep entries identical with reuse on/off (serial and -j 2)"
    QCheck.(triple (int_range 3 4) (int_range 2 3) (int_range 0 10_000))
    (fun spec ->
      let clip = random_clip spec in
      let run config pool =
        Sweep.sweep ~config ?pool ~tech:Tech.n28_12t ~rules:sweep_rules
          [ clip ]
      in
      let reference = run fast_config None in
      let off = run no_reuse_config None in
      Pool.with_pool ~domains:2 (fun pool ->
          reference = off
          && reference = run fast_config (Some pool)
          && reference = run no_reuse_config (Some pool)))

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "empty map" `Quick test_map_empty;
          Alcotest.test_case "result order" `Quick test_map_order;
          Alcotest.test_case "serial pool" `Quick test_map_serial_pool;
          Alcotest.test_case "reusable across batches" `Quick test_map_reusable;
          Alcotest.test_case "exception isolation" `Quick
            test_exception_isolation;
          Alcotest.test_case "map re-raises first error" `Quick
            test_map_reraises_first_error;
          Alcotest.test_case "on_done collector" `Quick test_on_done_collector;
          Alcotest.test_case "OPTROUTER_JOBS parsing" `Quick test_env_jobs;
          Alcotest.test_case "OPTROUTER_JOBS warns on rejects" `Quick
            test_env_jobs_warns_on_rejects;
          Alcotest.test_case "OPTROUTER_SOLVER_JOBS parsing" `Quick
            test_env_solver_jobs;
          QCheck_alcotest.to_alcotest qcheck_map_equals_list_map;
        ] );
      ( "parallel sweep",
        [
          Alcotest.test_case "sweep matches serial" `Quick
            test_parallel_sweep_deterministic;
          Alcotest.test_case "solver-jobs sweep matches serial" `Quick
            test_sweep_solver_jobs_identity;
          Alcotest.test_case "width rule" `Quick test_sweep_width_rule;
          Alcotest.test_case "telemetry and on_entry" `Quick
            test_sweep_telemetry_and_on_entry;
          Alcotest.test_case "reuse on/off identical entries" `Quick
            test_sweep_reuse_identity;
          QCheck_alcotest.to_alcotest qcheck_reuse_identity;
          QCheck_alcotest.to_alcotest qcheck_width_cache_stress;
        ] );
    ]
