(* Tests for the synthetic fabric: cell library, design generation, clip
   extraction, pin cost, the heuristic maze router, and the clip file
   format. *)

module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Cells = Optrouter_cells.Cells
module Design = Optrouter_design.Design
module Clip = Optrouter_grid.Clip
module Graph = Optrouter_grid.Graph
module Route = Optrouter_grid.Route
module Drc = Optrouter_grid.Drc
module Extract = Optrouter_clips.Extract
module Pin_cost = Optrouter_clips.Pin_cost
module Clipfile = Optrouter_clipfile.Clipfile
module Maze = Optrouter_maze.Maze
module Rect = Optrouter_geom.Rect
module Global = Optrouter_global.Global

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

let test_cells_library_per_tech () =
  List.iter
    (fun tech ->
      let lib = Cells.library tech in
      Alcotest.(check bool) "non-empty" true (List.length lib >= 8);
      List.iter
        (fun (c : Cells.t) ->
          Alcotest.(check bool) (c.Cells.c_name ^ " has pins") true (c.Cells.pins <> []);
          Alcotest.(check bool)
            (c.Cells.c_name ^ " has an output") true
            (Cells.outputs c <> []);
          List.iter
            (fun (p : Cells.pin) ->
              Alcotest.(check bool)
                (c.Cells.c_name ^ "." ^ p.Cells.p_name ^ " access points in cell")
                true
                (List.for_all
                   (fun (x, y) ->
                     x >= 0 && x < c.Cells.width_cols && y >= 1
                     && y <= tech.Tech.cell_height_tracks - 2)
                   p.Cells.offsets))
            c.Cells.pins)
        lib)
    Tech.all

let test_cells_n7_has_two_close_access_points () =
  let nand = Cells.nand2 Tech.n7_9t in
  List.iter
    (fun (p : Cells.pin) ->
      Alcotest.(check int)
        ("input pin " ^ p.Cells.p_name)
        2
        (List.length p.Cells.offsets);
      match p.Cells.offsets with
      | [ (_, y1); (_, y2) ] -> Alcotest.(check int) "adjacent rows" 1 (abs (y1 - y2))
      | _ -> Alcotest.fail "expected two offsets")
    (Cells.inputs nand)

let test_cells_n28_12t_has_more_access () =
  let ap tech =
    Cells.inputs (Cells.nand2 tech)
    |> List.map (fun (p : Cells.pin) -> List.length p.Cells.offsets)
    |> List.fold_left min max_int
  in
  Alcotest.(check bool) "12T > 8T" true (ap Tech.n28_12t > ap Tech.n28_8t);
  Alcotest.(check bool) "8T > 7nm" true (ap Tech.n28_8t > ap Tech.n7_9t)

let test_cells_render () =
  let s = Cells.render Tech.n28_12t (Cells.nand2 Tech.n28_12t) in
  Alcotest.(check bool) "mentions name" true
    (String.length s > 0 && String.sub s 0 7 = "NAND2X1");
  Alcotest.(check bool) "has power rails" true (String.contains s '=');
  Alcotest.(check bool) "has pin A" true (String.contains s 'A')

(* ------------------------------------------------------------------ *)
(* Design generation                                                   *)
(* ------------------------------------------------------------------ *)

let small_profile = { Design.aes with Design.instance_count = 300 }

(* The generator's RNG seed is derived from the profile name through the
   stable digest, not [Hashtbl.hash] (whose value is unspecified and
   changed across OCaml releases — a silent reshuffle of every generated
   design). Pin the exact values so any change to the helper is loud.
   [""]'s digest is MD5's canonical empty-input vector, cross-checking
   that the helper is plain MD5 and not something homegrown. *)
let test_stable_digest_pinned () =
  Alcotest.(check string)
    "md5(\"\") canonical vector" "d41d8cd98f00b204e9800998ecf8427e"
    (Optrouter_hash.Stable.digest_hex "");
  Alcotest.(check string)
    "digest of AES profile name" "76b7593457e2ab50befe2dcd63cf388f"
    (Optrouter_hash.Stable.digest_hex "AES");
  Alcotest.(check int) "seed of AES profile name" 1991727412
    (Optrouter_hash.Stable.seed "AES");
  Alcotest.(check int) "seed of M0 profile name" 2216815828
    (Optrouter_hash.Stable.seed "M0")

(* With the seed pinned above, the generated design itself is pinned:
   record a few coarse facts so a digest change (or any other placement
   reshuffle) fails here rather than only in downstream clip harvests. *)
let test_design_pinned_shape () =
  let d = Design.generate ~seed:5 small_profile ~util:0.9 Tech.n28_12t in
  let first = d.Design.instances.(0) in
  Alcotest.(check int) "instance count" 300 (Array.length d.Design.instances);
  Alcotest.(check int) "net count" 205 (Array.length d.Design.nets);
  Alcotest.(check int) "first instance col" 57 first.Design.col;
  Alcotest.(check int) "first instance band" 5 first.Design.band

let test_design_deterministic () =
  let d1 = Design.generate ~seed:5 small_profile ~util:0.9 Tech.n28_12t in
  let d2 = Design.generate ~seed:5 small_profile ~util:0.9 Tech.n28_12t in
  Alcotest.(check int) "same nets" (Array.length d1.Design.nets)
    (Array.length d2.Design.nets);
  Alcotest.(check bool) "same placement" true
    (Array.for_all2
       (fun (a : Design.instance) (b : Design.instance) ->
         a.Design.col = b.Design.col && a.Design.band = b.Design.band)
       d1.Design.instances d2.Design.instances)

let test_design_utilization () =
  List.iter
    (fun util ->
      let d = Design.generate ~seed:1 small_profile ~util Tech.n28_8t in
      Alcotest.(check bool)
        (Printf.sprintf "achieved util near target %.2f (got %.2f)" util
           d.Design.achieved_util)
        true
        (Float.abs (d.Design.achieved_util -. util) < 0.08))
    [ 0.85; 0.9; 0.95 ]

let test_design_no_overlaps () =
  let d = Design.generate ~seed:3 small_profile ~util:0.92 Tech.n28_12t in
  let by_band = Hashtbl.create 16 in
  Array.iter
    (fun (inst : Design.instance) ->
      let old = Option.value ~default:[] (Hashtbl.find_opt by_band inst.Design.band) in
      Hashtbl.replace by_band inst.Design.band (inst :: old))
    d.Design.instances;
  Hashtbl.iter
    (fun _band insts ->
      let sorted =
        List.sort
          (fun (a : Design.instance) b -> Int.compare a.Design.col b.Design.col)
          insts
      in
      let rec check = function
        | (a : Design.instance) :: (b :: _ as rest) ->
          Alcotest.(check bool) "no overlap" true
            (a.Design.col + a.Design.cell.Cells.width_cols <= b.Design.col);
          check rest
        | [ _ ] | [] -> ()
      in
      check sorted)
    by_band

let test_design_nets_wellformed () =
  let d = Design.generate ~seed:3 small_profile ~util:0.92 Tech.n28_12t in
  Alcotest.(check bool) "has nets" true (Array.length d.Design.nets > 50);
  let seen_inputs = Hashtbl.create 64 in
  Array.iter
    (fun (net : Design.dnet) ->
      Alcotest.(check bool) "has loads" true (net.Design.loads <> []);
      List.iter
        (fun (c : Design.conn) ->
          let key = (c.Design.inst, c.Design.pin) in
          Alcotest.(check bool) "input pin used once" false
            (Hashtbl.mem seen_inputs key);
          Hashtbl.replace seen_inputs key ())
        net.Design.loads)
    d.Design.nets

let test_design_pin_positions_in_extent () =
  let d = Design.generate ~seed:3 small_profile ~util:0.92 Tech.n7_9t in
  let cols, rows = Design.extent d in
  Array.iter
    (fun (net : Design.dnet) ->
      List.iter
        (fun conn ->
          List.iter
            (fun (x, y) ->
              Alcotest.(check bool) "in extent" true
                (x >= 0 && x < cols && y >= 0 && y < rows))
            (Design.access_positions d conn))
        (net.Design.driver :: net.Design.loads))
    d.Design.nets

(* ------------------------------------------------------------------ *)
(* Pin cost                                                            *)
(* ------------------------------------------------------------------ *)

let shaped_pin name (x, y) area_side =
  {
    Clip.p_name = name;
    access = [ (x, y) ];
    shape =
      Some
        (Rect.make ~xlo:(x * 136) ~ylo:(y * 100) ~xhi:((x * 136) + area_side)
           ~yhi:((y * 100) + area_side));
  }

let test_pin_cost_monotone_in_pins () =
  let mk n =
    Clip.make ~cols:6 ~rows:6 ~layers:2
      [
        {
          Clip.n_name = "n";
          pins = List.init n (fun i -> shaped_pin (Printf.sprintf "p%d" i) (i, i) 60);
        };
      ]
  in
  Alcotest.(check bool) "more pins cost more" true
    (Pin_cost.total (mk 4) > Pin_cost.total (mk 2))

let test_pin_cost_smaller_pins_cost_more () =
  let mk side =
    Clip.make ~cols:6 ~rows:6 ~layers:2
      [
        {
          Clip.n_name = "n";
          pins = [ shaped_pin "a" (0, 0) side; shaped_pin "b" (3, 3) side ];
        };
      ]
  in
  Alcotest.(check bool) "small pins are costlier" true
    (Pin_cost.pac (mk 40) > Pin_cost.pac (mk 200))

let test_pin_cost_closer_pins_cost_more () =
  let mk d =
    Clip.make ~cols:6 ~rows:6 ~layers:2
      [
        {
          Clip.n_name = "n";
          pins = [ shaped_pin "a" (0, 0) 60; shaped_pin "b" (d, d) 60 ];
        };
      ]
  in
  Alcotest.(check bool) "close pins are costlier" true
    (Pin_cost.prc (mk 1) > Pin_cost.prc (mk 5))

let test_pin_cost_port_pins_count_in_pec_only () =
  let with_port =
    Clip.make ~cols:6 ~rows:6 ~layers:2
      [
        {
          Clip.n_name = "n";
          pins =
            [
              shaped_pin "a" (0, 0) 60;
              shaped_pin "b" (3, 3) 60;
              { Clip.p_name = "port"; access = [ (5, 5) ]; shape = None };
            ];
        };
      ]
  in
  Alcotest.(check int) "PEC counts ports" 3
    (int_of_float (Pin_cost.pec with_port))

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

let test_extract_windows () =
  let d = Design.generate ~seed:2 small_profile ~util:0.92 Tech.n28_8t in
  let clips = Extract.windows Extract.reduced_params d in
  Alcotest.(check bool) "clips extracted" true (List.length clips > 3);
  List.iter
    (fun c ->
      (match Clip.validate c with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("invalid clip: " ^ m));
      Alcotest.(check bool) "net cap respected" true
        (Clip.num_nets c <= Extract.reduced_params.Extract.max_nets))
    clips

let test_extract_top_k_sorted () =
  let d = Design.generate ~seed:2 small_profile ~util:0.92 Tech.n28_8t in
  let clips = Extract.windows Extract.reduced_params d in
  let ranked = Extract.top_k 5 clips in
  Alcotest.(check bool) "at most 5" true (List.length ranked <= 5);
  let costs = List.map snd ranked in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a >= b && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "descending" true (sorted costs)

let test_extract_paper_params_dimensions () =
  let p = Extract.paper_params Tech.n28_12t in
  Alcotest.(check int) "7 columns" 7 p.Extract.window_cols;
  Alcotest.(check int) "10 rows" 10 p.Extract.window_rows;
  Alcotest.(check int) "8 layers" 8 p.Extract.layers

(* ------------------------------------------------------------------ *)
(* Maze router                                                         *)
(* ------------------------------------------------------------------ *)

let pin name access = { Clip.p_name = name; access; shape = None }

let two_pin name p1 p2 =
  { Clip.n_name = name; pins = [ pin (name ^ "s") [ p1 ]; pin (name ^ "t") [ p2 ] ] }

let test_maze_routes_simple () =
  let c = Clip.make ~cols:4 ~rows:3 ~layers:2 [ two_pin "a" (0, 0) (3, 0) ] in
  let g = Graph.build ~tech:Tech.n28_12t ~rules:(Rules.rule 1) c in
  let r = Maze.route ~rules:(Rules.rule 1) g in
  match r.Maze.solution with
  | Some sol ->
    Alcotest.(check int) "straight wire" 3 sol.Route.metrics.cost;
    Alcotest.(check int) "drc clean" 0
      (List.length (Drc.check ~rules:(Rules.rule 1) g sol))
  | None -> Alcotest.fail "maze failed on a trivial clip"

let test_maze_multi_pin () =
  let c =
    Clip.make ~cols:5 ~rows:3 ~layers:2
      [
        {
          Clip.n_name = "a";
          pins = [ pin "s" [ (0, 0) ]; pin "t1" [ (4, 0) ]; pin "t2" [ (2, 2) ] ];
        };
      ]
  in
  let g = Graph.build ~tech:Tech.n28_12t ~rules:(Rules.rule 1) c in
  let r = Maze.route ~rules:(Rules.rule 1) g in
  match r.Maze.solution with
  | Some sol ->
    Alcotest.(check int) "drc clean" 0
      (List.length (Drc.check ~rules:(Rules.rule 1) g sol))
  | None -> Alcotest.fail "maze failed on a Steiner net"

let test_maze_respects_rules () =
  (* Under RULE6 the maze must avoid adjacent vias or fail; it must never
     return a solution with violations. *)
  let c =
    Clip.make ~cols:6 ~rows:3 ~layers:3
      [ two_pin "a" (0, 0) (0, 1); two_pin "b" (3, 0) (3, 1) ]
  in
  let rules = Rules.rule 6 in
  let g = Graph.build ~tech:Tech.n28_12t ~rules c in
  let r = Maze.route ~rules g in
  match r.Maze.solution with
  | Some sol ->
    Alcotest.(check int) "drc clean under RULE6" 0
      (List.length (Drc.check ~rules g sol))
  | None -> () (* failing is acceptable; lying is not *)

let test_maze_zero_restarts () =
  let c = Clip.make ~cols:3 ~rows:1 ~layers:1 [ two_pin "a" (0, 0) (2, 0) ] in
  let g = Graph.build ~tech:Tech.n28_12t ~rules:(Rules.rule 1) c in
  let r =
    Maze.route ~params:{ Maze.default_params with Maze.restarts = 0 }
      ~rules:(Rules.rule 1) g
  in
  Alcotest.(check bool) "no attempts, no solution" true (r.Maze.solution = None);
  Alcotest.(check int) "zero restarts used" 0 r.Maze.restarts_used

let test_maze_deterministic () =
  let c =
    Clip.make ~cols:5 ~rows:4 ~layers:3
      [ two_pin "a" (0, 0) (4, 2); two_pin "b" (2, 0) (2, 3) ]
  in
  let g = Graph.build ~tech:Tech.n28_12t ~rules:(Rules.rule 1) c in
  let cost () =
    match (Maze.route ~rules:(Rules.rule 1) g).Maze.solution with
    | Some sol -> sol.Route.metrics.cost
    | None -> -1
  in
  Alcotest.(check int) "same result" (cost ()) (cost ())

(* One {!Maze.attempt} over the nets in index order, at zero edge cost
   and zero vertex cost unless [vertex_cost] is given. *)
let zero_cost_attempt ?vertex_cost ~rules ~rounds g =
  let vertex_cost =
    match vertex_cost with
    | Some vc -> vc
    | None -> Array.make g.Graph.nverts 0.0
  in
  Maze.attempt ~rules
    ~edge_cost:(Array.make (Graph.num_edges g) 0.0)
    ~vertex_cost
    ~order:(Array.init (Graph.num_nets g) Fun.id)
    ~reorder:(fun () -> Alcotest.fail "no repair round expected")
    ~rounds g

let routes_text (sol : Route.solution option) =
  match sol with
  | None -> "none"
  | Some sol ->
    String.concat "|"
      (Array.to_list
         (Array.map
            (fun (r : Route.net_route) ->
              Printf.sprintf "%d:%s" r.Route.net
                (String.concat "," (List.map string_of_int r.Route.edges)))
            sol.Route.routes))

(* A single restart is one attempt in net-index order at zero cost. *)
let test_maze_attempt_is_first_restart () =
  List.iter
    (fun (label, c, k, rounds) ->
      let rules = Rules.rule k in
      let g = Graph.build ~tech:Tech.n28_12t ~rules c in
      let r =
        Maze.route
          ~params:
            {
              Maze.default_params with
              Maze.restarts = 1;
              rip_up_rounds = rounds;
            }
          ~rules g
      in
      let sol, rip_ups = zero_cost_attempt ~rules ~rounds g in
      Alcotest.(check string) (label ^ " routes") (routes_text r.Maze.solution)
        (routes_text sol);
      Alcotest.(check int) (label ^ " rip-ups") r.Maze.rip_ups rip_ups)
    [
      ( "two nets",
        Clip.make ~cols:5 ~rows:4 ~layers:3
          [ two_pin "a" (0, 0) (4, 2); two_pin "b" (2, 0) (2, 3) ],
        1,
        4 );
      ( "RULE6 vias, no repair",
        Clip.make ~cols:6 ~rows:3 ~layers:3
          [ two_pin "a" (0, 0) (0, 1); two_pin "b" (3, 0) (3, 1) ],
        6,
        0 );
    ]

(* A vertex priced far above any detour is routed around. *)
let test_maze_vertex_cost_steers () =
  let c = Clip.make ~cols:5 ~rows:4 ~layers:3 [ two_pin "a" (0, 1) (4, 1) ] in
  let rules = Rules.rule 1 in
  let g = Graph.build ~tech:Tech.n28_12t ~rules c in
  let route ?vertex_cost () =
    match zero_cost_attempt ?vertex_cost ~rules ~rounds:0 g with
    | Some sol, _ -> sol
    | None, _ -> Alcotest.fail "maze attempt found no route"
  in
  let vertices (sol : Route.solution) =
    Array.to_list sol.Route.routes
    |> List.concat_map (fun (r : Route.net_route) ->
           List.concat_map
             (fun gid ->
               let e = g.Graph.edges.(gid) in
               [ e.Graph.u; e.Graph.v ])
             r.Route.edges)
  in
  (* where the unpriced route crosses the middle column, off every pin *)
  let v =
    List.find
      (fun v ->
        match g.Graph.vertex.(v) with
        | Graph.Grid { x; _ } -> x = 2
        | Graph.Via_node _ | Graph.Super _ -> false)
      (vertices (route ()))
  in
  let vertex_cost = Array.make g.Graph.nverts 0.0 in
  vertex_cost.(v) <- 1000.0;
  let steered = route ~vertex_cost () in
  Alcotest.(check bool) "avoids the priced vertex" false
    (List.mem v (vertices steered));
  Alcotest.(check int) "drc clean" 0 (List.length (Drc.check ~rules g steered))

(* ------------------------------------------------------------------ *)
(* Clip file                                                           *)
(* ------------------------------------------------------------------ *)

let sample_clip =
  Clip.make ~name:"sample" ~tech_name:"N28-8T"
    ~obstructions:[ (1, 1, 0) ]
    ~cols:5 ~rows:4 ~layers:3
    [
      {
        Clip.n_name = "n0";
        pins =
          [
            {
              Clip.p_name = "u1/Y";
              access = [ (0, 0); (0, 1) ];
              shape = Some (Rect.make ~xlo:0 ~ylo:0 ~xhi:50 ~yhi:250);
            };
            { Clip.p_name = "port"; access = [ (4, 3) ]; shape = None };
          ];
      };
      two_pin "n1" (2, 0) (2, 3);
    ]

let test_clipfile_roundtrip () =
  let text = Clipfile.to_string sample_clip in
  match Clipfile.of_string text with
  | Error m -> Alcotest.fail m
  | Ok [ c ] ->
    Alcotest.(check string) "name" sample_clip.Clip.c_name c.Clip.c_name;
    Alcotest.(check string) "tech" sample_clip.Clip.tech_name c.Clip.tech_name;
    Alcotest.(check int) "cols" sample_clip.Clip.cols c.Clip.cols;
    Alcotest.(check int) "nets" (Clip.num_nets sample_clip) (Clip.num_nets c);
    Alcotest.(check int) "pins" (Clip.num_pins sample_clip) (Clip.num_pins c);
    Alcotest.(check bool) "obstructions" true
      (c.Clip.obstructions = sample_clip.Clip.obstructions);
    Alcotest.(check string) "exact round trip" text (Clipfile.to_string c)
  | Ok _ -> Alcotest.fail "expected exactly one clip"

(* The serve cache key hashes this text, so its bytes are pinned. *)
let test_clipfile_text_pinned () =
  let clip =
    Clip.make ~name:"pinned" ~tech_name:"N7-9T"
      ~obstructions:[ (1, 1, 0); (3, 2, 1) ]
      ~cols:6 ~rows:5 ~layers:3
      [
        {
          Clip.n_name = "a";
          pins =
            [
              {
                Clip.p_name = "u1/Y";
                access = [ (0, 0); (0, 1); (0, 2) ];
                shape = Some (Rect.make ~xlo:(-20) ~ylo:0 ~xhi:50 ~yhi:250);
              };
              { Clip.p_name = "port"; access = [ (5, 4) ]; shape = None };
            ];
        };
        two_pin "b" (2, 0) (2, 3);
      ]
  in
  Alcotest.(check string)
    "exact text"
    "clip pinned\n\
     tech N7-9T\n\
     size 6 5 3\n\
     obs 1 1 0\n\
     obs 3 2 1\n\
     net a\n\
     pin u1/Y shape -20 0 50 250 access 0,0 0,1 0,2\n\
     pin port access 5,4\n\
     endnet\n\
     net b\n\
     pin bs access 2,0\n\
     pin bt access 2,3\n\
     endnet\n\
     endclip\n"
    (Clipfile.to_string clip);
  Alcotest.(check string)
    "pp prints the same text" (Clipfile.to_string clip)
    (Format.asprintf "%a" Clipfile.pp clip)

let test_clipfile_multiple_clips () =
  let text = Clipfile.to_string sample_clip ^ Clipfile.to_string sample_clip in
  match Clipfile.of_string text with
  | Ok clips -> Alcotest.(check int) "two clips" 2 (List.length clips)
  | Error m -> Alcotest.fail m

let test_clipfile_comments_and_blanks () =
  let text = "# a comment\n\n" ^ Clipfile.to_string sample_clip in
  Alcotest.(check bool) "parses" true (Result.is_ok (Clipfile.of_string text))

let test_clipfile_errors () =
  let bad cases =
    List.iter
      (fun (label, text) ->
        Alcotest.(check bool) label true (Result.is_error (Clipfile.of_string text)))
      cases
  in
  bad
    [
      ("endclip before size", "clip x\nendclip\n");
      ("pin outside net", "clip x\nsize 2 2 1\npin p access 0,0\nendclip\n");
      ("unterminated net", "clip x\nsize 2 2 1\nnet n\n");
      ("bad integer", "clip x\nsize a 2 1\nendclip\n");
      ("unknown directive", "clip x\nfoo\n");
      ("bad access point", "clip x\nsize 2 2 1\nnet n\npin p access zz\nendnet\nendclip\n");
    ]

let test_clipfile_file_io () =
  let path = Filename.temp_file "optrouter" ".clips" in
  Clipfile.write_file path [ sample_clip; sample_clip ];
  (match Clipfile.read_file path with
  | Ok clips -> Alcotest.(check int) "two clips" 2 (List.length clips)
  | Error m -> Alcotest.fail m);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Priority queue                                                      *)
(* ------------------------------------------------------------------ *)

module Pqueue = Optrouter_maze.Pqueue

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  List.iter (fun k -> Pqueue.push q k (int_of_float k)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  Alcotest.(check int) "length" 5 (Pqueue.length q);
  let order =
    List.init 5 (fun _ ->
        let k = Pqueue.min_key q in
        Alcotest.(check int) "payload of its key" (int_of_float k) (Pqueue.pop q);
        k)
  in
  Alcotest.(check (list (float 0.0))) "sorted pops" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] order;
  Alcotest.(check bool) "empty again" true (Pqueue.is_empty q);
  (match Pqueue.min_key q with
  | _ -> Alcotest.fail "expected Not_found from min_key"
  | exception Not_found -> ());
  match Pqueue.pop q with
  | _ -> Alcotest.fail "expected Not_found"
  | exception Not_found -> ()

(* Maze and Lagrangian results break distance ties by the heap's pop
   order, so the order for repeated keys is pinned exactly. The queue is
   cleared first: storage left from earlier entries must not leak in. *)
let test_pqueue_tie_order () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q k 99) [ 0.5; 1.0; 0.0 ];
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q);
  let pops = ref [] in
  let pop_n n =
    for _ = 1 to n do
      pops := Pqueue.pop q :: !pops
    done
  in
  List.iteri (fun i k -> Pqueue.push q k i)
    [ 3.0; 1.0; 2.0; 1.0; 3.0; 2.0; 1.0; 0.0; 2.0; 3.0; 1.0; 2.0 ];
  pop_n 4;
  List.iteri (fun i k -> Pqueue.push q k (12 + i)) [ 1.0; 2.0; 0.0; 1.0; 3.0 ];
  pop_n (Pqueue.length q);
  Alcotest.(check (list int))
    "payload pop order"
    [ 7; 1; 3; 10; 14; 6; 12; 15; 11; 8; 13; 2; 5; 9; 4; 16; 0 ]
    (List.rev !pops)

let prop_global_deterministic =
  QCheck.Test.make ~name:"global routing is deterministic" ~count:5
    QCheck.(int_range 1 50)
    (fun seed ->
      let d = Design.generate ~seed small_profile ~util:0.9 Tech.n28_8t in
      let summary gr =
        let c = Global.congestion gr in
        (c.Global.used_edges, c.Global.max_usage)
      in
      summary (Global.route ~cell_w:5 ~cell_h:5 d)
      = summary (Global.route ~cell_w:5 ~cell_h:5 d))

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing key order" ~count:200
    QCheck.(list pos_float)
    (fun keys ->
      let q = Pqueue.create () in
      List.iteri (fun i k -> Pqueue.push q k i) keys;
      let rec drain prev =
        if Pqueue.is_empty q then true
        else begin
          let k = Pqueue.min_key q in
          ignore (Pqueue.pop q);
          k >= prev && drain k
        end
      in
      drain neg_infinity)

(* ------------------------------------------------------------------ *)
(* Global router                                                       *)
(* ------------------------------------------------------------------ *)

let global_design = Design.generate ~seed:11 small_profile ~util:0.9 Tech.n28_8t

let test_global_route_covers_pins () =
  let gr = Global.route ~cell_w:5 ~cell_h:5 global_design in
  let ngx, ngy = Global.grid_size gr in
  Alcotest.(check bool) "grid nonempty" true (ngx > 0 && ngy > 0);
  Array.iteri
    (fun ni (net : Design.dnet) ->
      let cells = Global.net_gcells gr ni in
      List.iter
        (fun conn ->
          List.iter
            (fun (x, y) ->
              let g = (min (x / 5) (ngx - 1), min (y / 5) (ngy - 1)) in
              Alcotest.(check bool) "pin gcell on route" true (List.mem g cells))
            (Design.access_positions global_design conn))
        (net.Design.driver :: net.Design.loads))
    global_design.Design.nets

let test_global_route_connected () =
  (* Each net's gcell set must be connected through its edge list. *)
  let gr = Global.route ~cell_w:4 ~cell_h:4 global_design in
  Array.iteri
    (fun ni _ ->
      let cells = Global.net_gcells gr ni in
      match cells with
      | [] | [ _ ] -> ()
      | start :: _ ->
        let adj = Hashtbl.create 16 in
        List.iter
          (fun c ->
            List.iter
              (fun n ->
                let old = Option.value ~default:[] (Hashtbl.find_opt adj c) in
                Hashtbl.replace adj c (n :: old))
              (Global.crossings gr ~net:ni ~gx:(fst c) ~gy:(snd c)))
          cells;
        let visited = Hashtbl.create 16 in
        let rec bfs c =
          if not (Hashtbl.mem visited c) then begin
            Hashtbl.replace visited c ();
            List.iter bfs (Option.value ~default:[] (Hashtbl.find_opt adj c))
          end
        in
        bfs start;
        List.iter
          (fun c ->
            Alcotest.(check bool) "gcell reachable" true (Hashtbl.mem visited c))
          cells)
    global_design.Design.nets

let test_global_congestion_sane () =
  let gr = Global.route ~cell_w:5 ~cell_h:5 global_design in
  let c = Global.congestion gr in
  Alcotest.(check bool) "edges used" true (c.Global.used_edges > 0);
  Alcotest.(check bool) "usage bounded by used edges" true
    (c.Global.used_edges <= c.Global.total_edges);
  Alcotest.(check bool) "max usage positive" true (c.Global.max_usage > 0);
  let render = Global.render_congestion gr in
  Alcotest.(check bool) "render nonempty" true (String.length render > 0)

let test_extract_pass_throughs () =
  let params =
    { Extract.reduced_params with Extract.include_pass_throughs = true }
  in
  let plain = Extract.windows Extract.reduced_params global_design in
  let with_thru = Extract.windows params global_design in
  let count_thru clips =
    List.fold_left
      (fun acc (c : Clip.t) ->
        acc
        + List.length
            (List.filter
               (fun (n : Clip.net) ->
                 List.exists
                   (fun (p : Clip.pin) ->
                     String.length p.Clip.p_name >= 3
                     && String.sub p.Clip.p_name (String.length p.Clip.p_name - 3) 3
                        = "/in")
                   n.Clip.pins)
               c.Clip.nets))
      0 clips
  in
  Alcotest.(check int) "no pass-throughs by default" 0 (count_thru plain);
  Alcotest.(check bool) "pass-throughs appear" true (count_thru with_thru > 0);
  List.iter
    (fun c ->
      match Clip.validate c with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    with_thru

(* ------------------------------------------------------------------ *)
(* Route file                                                          *)
(* ------------------------------------------------------------------ *)

let test_routefile_export () =
  let c =
    Clip.make ~name:"exported" ~cols:4 ~rows:3 ~layers:2
      [ two_pin "a" (0, 0) (3, 2) ]
  in
  let rules = Rules.rule 1 in
  let g = Graph.build ~tech:Tech.n28_12t ~rules c in
  match (Maze.route ~rules g).Maze.solution with
  | None -> Alcotest.fail "maze failed"
  | Some sol ->
    let s = Optrouter_clipfile.Routefile.to_string g sol in
    let has sub =
      let len_s = String.length s and len = String.length sub in
      let rec go i = i + len <= len_s && (String.sub s i len = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "header" true (has "route exported tech N28-12T");
    Alcotest.(check bool) "cost recorded" true
      (has (Printf.sprintf "cost %d" sol.Route.metrics.cost));
    Alcotest.(check bool) "wire lines" true (has "wire M2");
    Alcotest.(check bool) "via lines" true (has "via V23");
    Alcotest.(check bool) "access lines" true (has "access");
    Alcotest.(check bool) "net block" true (has "net a" && has "endnet")

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qtest = QCheck_alcotest.to_alcotest

(* Clip file round trip on randomly generated clips. *)
let random_clip_gen =
  let open QCheck.Gen in
  let* cols = int_range 2 8 in
  let* rows = int_range 2 8 in
  let* layers = int_range 1 4 in
  (* Every net takes two of the cols * rows positions for itself: nets
     sharing an access point make an invalid clip (a 2x2 grid holds two
     nets, not three). *)
  let* nnets = int_range 1 (min 3 (cols * rows / 2)) in
  let* positions =
    shuffle_l
      (List.concat_map (fun x -> List.init rows (fun y -> (x, y))) (List.init cols Fun.id))
  in
  let rec nets k = function
    | p1 :: p2 :: rest when k < nnets ->
      two_pin (Printf.sprintf "n%d" k) p1 p2 :: nets (k + 1) rest
    | _ -> []
  in
  return (Clip.make ~cols ~rows ~layers (nets 0 positions))

let prop_clipfile_roundtrip =
  QCheck.Test.make ~name:"clip file round-trips arbitrary clips" ~count:100
    (QCheck.make ~print:Clipfile.to_string random_clip_gen)
    (fun clip ->
      match Clipfile.of_string (Clipfile.to_string clip) with
      | Ok [ c ] -> Clipfile.to_string c = Clipfile.to_string clip
      | Ok _ | Error _ -> false)

(* Maze solutions, when produced, are always DRC-clean. *)
let prop_maze_sound =
  QCheck.Test.make ~name:"maze solutions are DRC-clean" ~count:25
    (QCheck.make ~print:Clipfile.to_string random_clip_gen)
    (fun clip ->
      if clip.Clip.layers < 2 then true
      else begin
        let rules = Rules.rule 1 in
        let g = Graph.build ~tech:Tech.n28_12t ~rules clip in
        match (Maze.route ~rules g).Maze.solution with
        | Some sol -> Drc.check ~rules g sol = []
        | None -> true
      end)

let () =
  Alcotest.run "fabric"
    [
      ( "cells",
        [
          Alcotest.test_case "library per technology" `Quick
            test_cells_library_per_tech;
          Alcotest.test_case "N7 pins have two adjacent access points" `Quick
            test_cells_n7_has_two_close_access_points;
          Alcotest.test_case "access point ordering across techs" `Quick
            test_cells_n28_12t_has_more_access;
          Alcotest.test_case "render" `Quick test_cells_render;
        ] );
      ( "design",
        [
          Alcotest.test_case "deterministic generation" `Quick
            test_design_deterministic;
          Alcotest.test_case "stable digest pinned values" `Quick
            test_stable_digest_pinned;
          Alcotest.test_case "pinned generated shape" `Quick
            test_design_pinned_shape;
          Alcotest.test_case "utilisation targeting" `Quick test_design_utilization;
          Alcotest.test_case "no placement overlaps" `Quick test_design_no_overlaps;
          Alcotest.test_case "well-formed netlist" `Quick
            test_design_nets_wellformed;
          Alcotest.test_case "pin positions in extent" `Quick
            test_design_pin_positions_in_extent;
        ] );
      ( "pin-cost",
        [
          Alcotest.test_case "monotone in pin count" `Quick
            test_pin_cost_monotone_in_pins;
          Alcotest.test_case "smaller pins cost more" `Quick
            test_pin_cost_smaller_pins_cost_more;
          Alcotest.test_case "closer pins cost more" `Quick
            test_pin_cost_closer_pins_cost_more;
          Alcotest.test_case "ports count in PEC only" `Quick
            test_pin_cost_port_pins_count_in_pec_only;
        ] );
      ( "extract",
        [
          Alcotest.test_case "windows are valid clips" `Quick test_extract_windows;
          Alcotest.test_case "top-k is sorted" `Quick test_extract_top_k_sorted;
          Alcotest.test_case "paper window dimensions" `Quick
            test_extract_paper_params_dimensions;
        ] );
      ( "maze",
        [
          Alcotest.test_case "routes a wire" `Quick test_maze_routes_simple;
          Alcotest.test_case "routes a Steiner net" `Quick test_maze_multi_pin;
          Alcotest.test_case "respects via restrictions" `Quick
            test_maze_respects_rules;
          Alcotest.test_case "deterministic" `Quick test_maze_deterministic;
          Alcotest.test_case "zero restarts" `Quick test_maze_zero_restarts;
          Alcotest.test_case "one attempt is the first restart" `Quick
            test_maze_attempt_is_first_restart;
          Alcotest.test_case "vertex cost steers the route" `Quick
            test_maze_vertex_cost_steers;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "equal keys pop in a fixed order" `Quick
            test_pqueue_tie_order;
          qtest prop_pqueue_sorted;
        ] );
      ( "global",
        [
          Alcotest.test_case "routes cover pins" `Quick
            test_global_route_covers_pins;
          Alcotest.test_case "routes are connected" `Quick
            test_global_route_connected;
          Alcotest.test_case "congestion stats" `Quick test_global_congestion_sane;
          Alcotest.test_case "pass-through extraction" `Quick
            test_extract_pass_throughs;
          qtest prop_global_deterministic;
        ] );
      ( "clipfile",
        [
          Alcotest.test_case "round trip" `Quick test_clipfile_roundtrip;
          Alcotest.test_case "exact text" `Quick test_clipfile_text_pinned;
          Alcotest.test_case "multiple clips" `Quick test_clipfile_multiple_clips;
          Alcotest.test_case "comments and blanks" `Quick
            test_clipfile_comments_and_blanks;
          Alcotest.test_case "malformed inputs rejected" `Quick test_clipfile_errors;
          Alcotest.test_case "file io" `Quick test_clipfile_file_io;
          Alcotest.test_case "route export" `Quick test_routefile_export;
        ] );
      ( "properties",
        [ qtest prop_clipfile_roundtrip; qtest prop_maze_sound ] );
    ]
