(* Paper-size instances (Section 4: 1.0um x 1.0um clips = 7x10 tracks,
   8 layers).

   This example builds a full paper-size clip, reports the routing graph
   and ILP sizes for several rule configurations (the numbers behind the
   Section 4.2 complexity analysis), and routes the clip heuristically.
   It does not run the exact solve, to stay quick: at this size the
   exact [Optrouter.route] takes 0.5-6.5 s per RULE1 clip on a 2-core
   host (CPLEX needed ~15 minutes per clip in the paper). The
   full ILP is also written to a .lp file, to hand to any MILP solver.

   Run with: dune exec examples/paper_size.exe *)

module Clip = Optrouter_grid.Clip
module Graph = Optrouter_grid.Graph
module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Route = Optrouter_grid.Route
module Formulate = Optrouter_core.Formulate
module Maze = Optrouter_maze.Maze
module Lp_file = Optrouter_ilp.Lp_file

let pin name access = { Clip.p_name = name; access; shape = None }

(* A hand-built paper-size clip: 7 columns x 10 rows x 8 layers with six
   nets of 2-3 pins, mimicking the density of the paper's top-100 clips. *)
let clip =
  let two name p1 p2 = { Clip.n_name = name; pins = [ pin (name ^ "s") [ p1 ]; pin (name ^ "t") [ p2 ] ] } in
  let three name p1 p2 p3 =
    { Clip.n_name = name;
      pins = [ pin (name ^ "s") [ p1 ]; pin (name ^ "t1") [ p2 ]; pin (name ^ "t2") [ p3 ] ] }
  in
  Clip.make ~name:"paper-size" ~tech_name:"N28-12T" ~cols:7 ~rows:10 ~layers:8
    [
      three "n0" (0, 0) (6, 3) (3, 9);
      two "n1" (1, 1) (5, 8);
      two "n2" (2, 0) (2, 7);
      three "n3" (6, 0) (0, 6) (4, 4);
      two "n4" (0, 9) (6, 9);
      two "n5" (1, 5) (5, 2);
    ]

let () =
  let tech = Tech.n28_12t in
  Printf.printf "paper-size clip: %dx%d tracks, %d layers, %d nets\n\n"
    clip.Clip.cols clip.Clip.rows clip.Clip.layers (Clip.num_nets clip);
  Printf.printf "%-28s %8s %8s %8s %9s\n" "rule configuration" "|V|" "|A|"
    "vars" "rows";
  List.iter
    (fun rn ->
      let rules = Rules.rule rn in
      let g = Graph.build ~tech ~rules clip in
      let form = Formulate.build ~rules g in
      let s = Formulate.sizes form in
      Printf.printf "%-28s %8d %8d %8d %9d\n"
        (Format.asprintf "%a" Rules.pp rules)
        g.Graph.nverts
        (2 * Graph.num_edges g)
        s.Formulate.vars s.Formulate.rows)
    [ 1; 3; 8 ];
  print_newline ();
  (* Heuristic routing is fast even at paper size. *)
  let rules = Rules.rule 1 in
  let g = Graph.build ~tech ~rules clip in
  (match (Maze.route ~rules g).Maze.solution with
  | Some sol ->
    Printf.printf "heuristic routing: cost=%d wirelength=%d vias=%d\n"
      sol.Route.metrics.cost sol.Route.metrics.wirelength sol.Route.metrics.vias
  | None -> print_endline "heuristic routing failed");
  let form = Formulate.build ~rules g in
  let path = Filename.temp_file "paper_size" ".lp" in
  Lp_file.write_file path (Formulate.lp form);
  Printf.printf "full ILP written to %s (feed it to any MILP solver)\n" path
