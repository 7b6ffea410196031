(* Tests for the Lagrangian decomposition solve mode: dual-bound
   soundness against the exact ILP, DRC-certified rounding, golden
   traces and the solve-mode plumbing through [Optrouter]. *)

module Clip = Optrouter_grid.Clip
module Graph = Optrouter_grid.Graph
module Route = Optrouter_grid.Route
module Drc = Optrouter_grid.Drc
module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Optrouter = Optrouter_core.Optrouter
module Maze = Optrouter_maze.Maze
module Lagrangian = Optrouter_lagrangian.Lagrangian
module Clipfile = Optrouter_clipfile.Clipfile

let tech = Tech.n28_12t
let rule = Rules.rule

let pin name access = { Clip.p_name = name; access; shape = None }
let net name pins = { Clip.n_name = name; pins }

let two_pin name (x1, y1) (x2, y2) =
  net name [ pin (name ^ ".s") [ (x1, y1) ]; pin (name ^ ".t") [ (x2, y2) ] ]

let bundled_clips () =
  (* dune runtest runs in test/; dune exec runs at the project root *)
  let path =
    if Sys.file_exists "../data/samples.clips" then "../data/samples.clips"
    else "data/samples.clips"
  in
  match Clipfile.read_file path with
  | Ok clips -> clips
  | Error e -> Alcotest.failf "samples.clips: %s" e

let exact_cost clip =
  match (Optrouter.route ~tech ~rules:(rule 1) clip).Optrouter.verdict with
  | Optrouter.Routed sol -> sol.Route.metrics.cost
  | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ ->
    Alcotest.failf "clip %s: exact solve must prove under RULE1"
      clip.Clip.c_name

(* ------------------------------------------------------------------ *)
(* Bundled clips: certified rounding with gap <= 2% vs the ILP optimum  *)
(* ------------------------------------------------------------------ *)

let test_bundled_gap () =
  List.iter
    (fun clip ->
      let opt = exact_cost clip in
      let rules = rule 1 in
      let g = Graph.build ~tech ~rules clip in
      let r = Lagrangian.solve ~rules g in
      Alcotest.(check bool)
        (clip.Clip.c_name ^ " dual bound is a lower bound")
        true
        (r.Lagrangian.dual_bound <= float_of_int opt +. 1e-6);
      match r.Lagrangian.solution with
      | None -> Alcotest.failf "%s: no rounded routing" clip.Clip.c_name
      | Some sol ->
        Alcotest.(check (list Alcotest.reject))
          (clip.Clip.c_name ^ " rounding is DRC-clean")
          [] (Drc.check ~rules g sol);
        Alcotest.(check bool)
          (clip.Clip.c_name ^ " primal is an upper bound")
          true
          (sol.Route.metrics.cost >= opt);
        (match r.Lagrangian.gap with
        | None -> Alcotest.failf "%s: no gap reported" clip.Clip.c_name
        | Some gap ->
          Alcotest.(check bool)
            (Printf.sprintf "%s gap %.4f <= 2%%" clip.Clip.c_name gap)
            true
            (gap >= 0.0 && gap <= 0.02));
        (* the reported gap is measured against the true optimum too *)
        let true_gap =
          float_of_int (sol.Route.metrics.cost - opt)
          /. float_of_int (max 1 sol.Route.metrics.cost)
        in
        Alcotest.(check bool)
          (clip.Clip.c_name ^ " within 2% of the ILP optimum")
          true (true_gap <= 0.02))
    (bundled_clips ())

(* ------------------------------------------------------------------ *)
(* Golden traces: pricing speedups must not move a single result byte   *)
(* ------------------------------------------------------------------ *)

(* A paper-size clip (7x10 tracks x 8 layers, N7-9T) with three
   two-sink nets, so the Steiner DP's merge runs as well as the plain
   two-terminal Dijkstra. *)
let q230 =
  {|clip q230
tech N7-9T
size 7 10 8
net n2
pin u2/Y shape 396 -12 420 212 access 3,0 3,1 3,2
pin u302/A shape 532 -12 556 112 access 4,0 4,1
pin n2/port access 0,0
endnet
net n85
pin u123/Y shape 804 788 828 1012 access 6,9 6,8 6,7
pin u302/C shape 804 -12 828 112 access 6,0 6,1
pin n85/port access 1,0
endnet
net n102
pin u123/B shape 668 888 692 1012 access 5,9 5,8
pin u123/A shape 532 888 556 1012 access 4,9 4,8
pin n102/port access 0,9
endnet
net n63
pin u302/B shape 668 -12 692 112 access 5,0 5,1
pin n63/port access 2,0
endnet
endclip
|}

(* Every sub-gradient step's dual and step size (bit-exact, [%h]), the
   final bound and iteration count, and the rounded routes' edge lists
   in their routed order. *)
let trace_digest (r : Lagrangian.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (s : Lagrangian.iter_stat) ->
      Printf.bprintf b "%d %h %h\n" s.Lagrangian.it s.Lagrangian.dual
        s.Lagrangian.step)
    r.Lagrangian.trace;
  Printf.bprintf b "bound %h iters %d\n" r.Lagrangian.dual_bound
    r.Lagrangian.iterations;
  (match r.Lagrangian.solution with
  | None -> Buffer.add_string b "unrounded\n"
  | Some sol ->
    Array.iter
      (fun (nr : Route.net_route) ->
        Printf.bprintf b "%d:%s\n" nr.Route.net
          (String.concat "," (List.map string_of_int nr.Route.edges)))
      sol.Route.routes);
  Optrouter_hash.Stable.digest_hex (Buffer.contents b)

let golden_digests =
  [
    ("quickstart", "69b7041d0b6ac940125904f2591de2d5");
    ("eol-conflict", "0c47f6a092eeedcfc1431ca7d020ed75");
    ("ladder", "682ea7d59e9f819b6f4569dd99bcabdb");
    ("q230", "8dfd3067c1ce44a9610855816ed805a0");
  ]

let clip_of_string text =
  match Clipfile.one_of_string text with
  | Ok c -> c
  | Error e -> Alcotest.failf "embedded clip: %s" e

let test_golden_traces () =
  let q230 = clip_of_string q230 in
  let rules = rule 1 in
  let digests =
    List.map
      (fun (clip : Clip.t) ->
        let tech = Tech.by_name clip.Clip.tech_name in
        let g = Graph.build ~tech ~rules clip in
        (clip.Clip.c_name, trace_digest (Lagrangian.solve ~rules g)))
      (bundled_clips () @ [ q230 ])
  in
  Alcotest.(check (list (pair string string)))
    "RULE1 trace digests" golden_digests digests

(* ------------------------------------------------------------------ *)
(* Rounding pins: the maze-style repair that turns prices into routes   *)
(* ------------------------------------------------------------------ *)

(* The one clip of the 90 in the paper-size pool on which rounding beats
   the maze incumbent under RULE1 (164 -> 156, dual bound 137). *)
let q223 =
  {|clip q223
tech N7-9T
size 7 10 8
net n136
pin u207/Y shape 532 388 556 612 access 4,4 4,5 4,6
pin u323/A shape 668 388 692 512 access 5,4 5,5
pin n136/port access 4,0
endnet
net n256
pin u207/A shape 260 388 284 512 access 2,4 2,5
pin n256/port access 2,0
endnet
net n47
pin n47/in access 3,0
pin n47/out access 3,9
endnet
net n76
pin n76/in access 1,0
pin n76/out access 2,9
endnet
net n151
pin n151/in access 0,5
pin n151/out access 6,5
endnet
net n217
pin n217/in access 0,4
pin n217/out access 6,4
endnet
net n236
pin n236/in access 5,0
pin n236/out access 4,9
endnet
net n238
pin n238/in access 1,9
pin n238/out access 0,0
endnet
endclip
|}

let cost_of_solution =
  Option.map (fun (sol : Route.solution) -> sol.Route.metrics.cost)

let solution_bytes (sol : Route.solution) =
  String.concat "|"
    (Array.to_list
       (Array.map
          (fun (r : Route.net_route) ->
            Printf.sprintf "%d:%s" r.Route.net
              (String.concat ","
                 (List.map string_of_int (List.sort Int.compare r.Route.edges))))
          sol.Route.routes))

let test_rounding_beats_maze () =
  let clip = clip_of_string q223 in
  let tech = Tech.by_name clip.Clip.tech_name in
  let rules = rule 1 in
  let g = Graph.build ~tech ~rules clip in
  Alcotest.(check (option int))
    "maze incumbent" (Some 164)
    (cost_of_solution (Maze.route ~rules g).Maze.solution);
  let r = Lagrangian.solve ~rules g in
  Alcotest.(check (float 0.0)) "dual bound" 137.0 r.Lagrangian.dual_bound;
  Alcotest.(check int) "rounding attempts" 9 r.Lagrangian.rounding_attempts;
  Alcotest.(check int) "rip-ups" 0 r.Lagrangian.rip_ups;
  match r.Lagrangian.solution with
  | None -> Alcotest.fail "q223: no rounded routing"
  | Some sol ->
    Alcotest.(check int) "rounded primal" 156 sol.Route.metrics.cost;
    Alcotest.(check string)
      "payload digest" "2997cf9f0567a3149f0f5949c19e4ad4"
      (Optrouter_hash.Stable.digest_hex (solution_bytes sol))

(* Rules the sample clips cannot satisfy cheaply push every rounding
   attempt through its penalise-rip-up-reroute rounds: (clip, rule,
   rip-ups, primal). The primal is the maze incumbent in each case. *)
let repair_pins =
  [
    ("quickstart", 2, 117, Some 48);
    ("eol-conflict", 2, 108, Some 38);
    ("ladder", 7, 18, Some 19);
    ("quickstart", 6, 54, None);
  ]

let test_repair_pins () =
  let clips = bundled_clips () in
  List.iter
    (fun (name, k, rip_ups, primal) ->
      let clip = List.find (fun (c : Clip.t) -> c.Clip.c_name = name) clips in
      let rules = rule k in
      let g = Graph.build ~tech ~rules clip in
      let r = Lagrangian.solve ~rules g in
      let label = Printf.sprintf "%s RULE%d" name k in
      Alcotest.(check int) (label ^ " rounding attempts") 9
        r.Lagrangian.rounding_attempts;
      Alcotest.(check int) (label ^ " rip-ups") rip_ups r.Lagrangian.rip_ups;
      Alcotest.(check (option int)) (label ^ " primal") primal
        (cost_of_solution r.Lagrangian.solution))
    repair_pins

(* ------------------------------------------------------------------ *)
(* Driver plumbing: verdict, stats, fingerprint                         *)
(* ------------------------------------------------------------------ *)

let lag_config = Optrouter.make_config ~solve_mode:Optrouter.Lagrangian ()

let test_near_optimal_verdict () =
  let clip =
    Clip.make ~name:"plumb" ~cols:4 ~rows:3 ~layers:3
      [ two_pin "a" (0, 0) (3, 2); two_pin "b" (0, 2) (3, 0) ]
  in
  let result = Optrouter.route ~config:lag_config ~tech ~rules:(rule 1) clip in
  match result.Optrouter.verdict with
  | Optrouter.Near_optimal sol ->
    let opt = exact_cost clip in
    Alcotest.(check bool) "cost bounded by dual" true
      (sol.Route.metrics.cost >= opt);
    let stats = result.Optrouter.stats in
    (match stats.Optrouter.lagrangian with
    | None -> Alcotest.fail "lagrangian stats missing"
    | Some ls ->
      Alcotest.(check bool) "dual <= primal" true
        (ls.Optrouter.dual_bound <= float_of_int sol.Route.metrics.cost +. 1e-6);
      Alcotest.(check bool) "iterations ran" true (ls.Optrouter.lag_iterations >= 1);
      (match ls.Optrouter.primal_cost with
      | Some c ->
        Alcotest.(check int) "stats primal is the verdict cost"
          sol.Route.metrics.cost c
      | None -> Alcotest.fail "stats primal missing"))
  | Optrouter.Routed _ | Optrouter.Unroutable | Optrouter.Limit _ ->
    Alcotest.fail "lagrangian mode must answer Near_optimal here"

(* No branch and bound runs in this mode, so the B&B fields stay zero
   even when the config asks for a 2-wide search; pricing time is
   reported once, under [lagrangian]. *)
let test_pricing_reported_once () =
  let config =
    Optrouter.make_config ~solve_mode:Optrouter.Lagrangian
      ~milp:(Optrouter_ilp.Milp.make_params ~solver_jobs:2 ())
      ()
  in
  let clip =
    List.find (fun c -> c.Clip.c_name = "eol-conflict") (bundled_clips ())
  in
  let stats =
    (Optrouter.route ~config ~tech ~rules:(rule 1) clip).Optrouter.stats
  in
  Alcotest.(check int) "no B&B workers" 0 stats.Optrouter.solver_workers;
  Alcotest.(check (float 0.0)) "no B&B busy time" 0.0
    stats.Optrouter.solver_busy_s;
  Alcotest.(check (float 0.0)) "no B&B wall time" 0.0
    stats.Optrouter.solver_wall_s;
  match stats.Optrouter.lagrangian with
  | None -> Alcotest.fail "lagrangian stats missing"
  | Some ls ->
    Alcotest.(check bool) "iterations ran" true (ls.Optrouter.lag_iterations >= 1);
    Alcotest.(check bool) "pricing busy time reported" true
      (ls.Optrouter.lag_busy_s > 0.0);
    Alcotest.(check bool) "pricing wall time reported" true
      (ls.Optrouter.lag_wall_s > 0.0)

let test_unroutable_detected () =
  (* A pin fenced in by obstructions on M1 with a single layer cannot
     reach its mate: the reachability pre-check must prove it. *)
  let clip =
    Clip.make ~name:"fenced" ~cols:3 ~rows:3 ~layers:1
      ~obstructions:[ (1, 0, 0); (0, 1, 0); (1, 2, 0) ]
      [ two_pin "a" (0, 0) (2, 2) ]
  in
  let result = Optrouter.route ~config:lag_config ~tech ~rules:(rule 1) clip in
  match result.Optrouter.verdict with
  | Optrouter.Unroutable -> ()
  | Optrouter.Routed _ | Optrouter.Limit _ | Optrouter.Near_optimal _ ->
    Alcotest.fail "expected Unroutable from the reachability pre-check"

(* A seed enters the decomposition only when it is DRC-clean under the
   solve's rules; a sweep's RULE1 baseline often is not under a RULEk,
   and the stats must say so rather than claim every seed was used. *)
let test_seed_use_reported () =
  let outcomes =
    List.concat_map
      (fun (clip : Clip.t) ->
        let base =
          let r = Optrouter.route ~tech ~rules:(rule 1) clip in
          match r.Optrouter.verdict with
          | Optrouter.Routed sol -> sol
          | Optrouter.Unroutable | Optrouter.Limit _
          | Optrouter.Near_optimal _ ->
            Alcotest.failf "%s: RULE1 baseline must prove" clip.Clip.c_name
        in
        List.map
          (fun k ->
            let rules = rule k in
            let clean =
              Drc.check ~rules (Graph.build ~tech ~rules clip) base = []
            in
            let r =
              Optrouter.route ~config:lag_config ~seed:base ~tech ~rules clip
            in
            let want =
              if clean then Optrouter.Seed_incumbent
              else Optrouter.Seed_rejected
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s RULE%d seed use" clip.Clip.c_name k)
              true
              (r.Optrouter.stats.Optrouter.seed_use = want);
            clean)
          [ 1; 2; 6 ])
      (bundled_clips ())
  in
  Alcotest.(check bool) "some seeds taken" true (List.mem true outcomes);
  Alcotest.(check bool) "some seeds rejected" true (List.mem false outcomes)

let test_fingerprint_distinguishes_modes () =
  let exact = Optrouter.make_config () in
  Alcotest.(check bool) "solve_mode changes the fingerprint" true
    (Optrouter.config_fingerprint exact
    <> Optrouter.config_fingerprint lag_config);
  (* effort knobs still do not: same mode, different jobs/time budget *)
  let lag_wide =
    Optrouter.make_config ~solve_mode:Optrouter.Lagrangian
      ~milp:
        (Optrouter_ilp.Milp.make_params ~time_limit_s:1.0 ~solver_jobs:4 ())
      ()
  in
  Alcotest.(check string) "effort knobs do not change the fingerprint"
    (Optrouter.config_fingerprint lag_config)
    (Optrouter.config_fingerprint lag_wide)

(* ------------------------------------------------------------------ *)
(* Properties: dual <= ILP optimum <= rounded primal                    *)
(* ------------------------------------------------------------------ *)

(* Random clips with a planted non-overlapping pin layout (the routing
   test suite's generator). *)
let random_clip_gen =
  let open QCheck.Gen in
  let* cols = int_range 3 4 in
  let* rows = int_range 2 3 in
  let* layers = int_range 2 3 in
  let* nnets = int_range 1 2 in
  let* shuffled =
    let all =
      List.concat_map
        (fun x -> List.init rows (fun y -> (x, y)))
        (List.init cols Fun.id)
    in
    shuffle_l all
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | p :: rest -> p :: take (n - 1) rest
  in
  let positions = take (2 * nnets) shuffled in
  let nets =
    List.init nnets (fun k ->
        match
          (List.nth_opt positions (2 * k), List.nth_opt positions ((2 * k) + 1))
        with
        | Some p1, Some p2 -> two_pin (Printf.sprintf "n%d" k) p1 p2
        | _, _ -> two_pin (Printf.sprintf "n%d" k) (0, 0) (cols - 1, rows - 1))
  in
  return (Clip.make ~cols ~rows ~layers nets)

let arbitrary_clip =
  QCheck.make ~print:(Format.asprintf "%a" Clip.pp) random_clip_gen

let prop_sandwich =
  QCheck.Test.make ~name:"dual bound <= ILP optimum <= rounded primal"
    ~count:15 arbitrary_clip (fun c ->
      let rules = rule 1 in
      match (Optrouter.route ~tech ~rules c).Optrouter.verdict with
      | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ ->
        true (* only exact-proven clips pin the sandwich *)
      | Optrouter.Routed sol ->
        let opt = sol.Route.metrics.cost in
        let g = Graph.build ~tech ~rules c in
        let r = Lagrangian.solve ~rules g in
        r.Lagrangian.dual_bound <= float_of_int opt +. 1e-6
        && (match r.Lagrangian.solution with
           | None -> false (* RULE1 roundings must land *)
           | Some s ->
             s.Route.metrics.cost >= opt && Drc.check ~rules g s = []))

(* The sandwich must survive the two new sweep dimensions together: a
   DSA rule (whose coloring rows are absent from the relaxation — a
   relaxation stays a relaxation) and a via objective (pricing and
   bounds move to objective units; the integral weight keeps the
   ceil-lift legitimate). *)
let prop_sandwich_dsa_via =
  let rules = Rules.with_objective (Rules.Via_weighted 2.0) (rule 12) in
  let obj (m : Route.metrics) =
    Rules.objective_value rules.Rules.objective ~wirelength:m.Route.wirelength
      ~vias:m.Route.vias ~cost:m.Route.cost
  in
  QCheck.Test.make
    ~name:"RULE12 + via-weighted: dual <= ILP optimum <= certified primal"
    ~count:10 arbitrary_clip (fun c ->
      match (Optrouter.route ~tech ~rules c).Optrouter.verdict with
      | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ ->
        true (* only exact-proven clips pin the sandwich *)
      | Optrouter.Routed sol ->
        let opt = obj sol.Route.metrics in
        let g = Graph.build ~tech ~rules c in
        let r = Lagrangian.solve ~rules g in
        r.Lagrangian.dual_bound <= opt +. 1e-6
        &&
        (* roundings may miss under DSA, but a reported one must be a
           DRC-certified upper bound in objective units *)
        (match r.Lagrangian.solution with
        | None -> true
        | Some s ->
          obj s.Route.metrics >= opt -. 1e-6 && Drc.check ~rules g s = []))

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "lagrangian"
    [
      ( "bundled",
        [
          Alcotest.test_case "gap <= 2% vs ILP optimum" `Quick test_bundled_gap;
          Alcotest.test_case "golden traces" `Quick test_golden_traces;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "q223 rounding beats the maze" `Quick
            test_rounding_beats_maze;
          Alcotest.test_case "repair-loop pins" `Quick test_repair_pins;
        ] );
      ( "driver",
        [
          Alcotest.test_case "near-optimal verdict + stats" `Quick
            test_near_optimal_verdict;
          Alcotest.test_case "pricing reported once, under lagrangian" `Quick
            test_pricing_reported_once;
          Alcotest.test_case "reachability proves unroutable" `Quick
            test_unroutable_detected;
          Alcotest.test_case "seed use reported" `Quick test_seed_use_reported;
          Alcotest.test_case "fingerprint distinguishes modes" `Quick
            test_fingerprint_distinguishes_modes;
        ] );
      ("properties", [ qtest prop_sandwich; qtest prop_sandwich_dsa_via ]);
    ]
