(* Tests for the routing graph, ILP formulation, OptRouter and DRC. *)

module Clip = Optrouter_grid.Clip
module Graph = Optrouter_grid.Graph
module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Layer = Optrouter_tech.Layer
module Via_shape = Optrouter_tech.Via_shape
module Formulate = Optrouter_core.Formulate
module Optrouter = Optrouter_core.Optrouter
module Route = Optrouter_grid.Route
module Drc = Optrouter_grid.Drc
module Milp = Optrouter_ilp.Milp

let tech = Tech.n28_12t
let rule = Rules.rule

let pin name access = { Clip.p_name = name; access; shape = None }

let net name pins = { Clip.n_name = name; pins }

let two_pin name (x1, y1) (x2, y2) =
  net name [ pin (name ^ ".s") [ (x1, y1) ]; pin (name ^ ".t") [ (x2, y2) ] ]

let clip ?obstructions ~cols ~rows ~layers nets =
  Clip.make ?obstructions ~cols ~rows ~layers nets

let route ?config ?(rules = rule 1) c = Optrouter.route ?config ~tech ~rules c

let routed_cost result =
  match result.Optrouter.verdict with
  | Optrouter.Routed sol -> sol.Route.metrics.cost
  | Optrouter.Unroutable -> Alcotest.fail "unexpectedly unroutable"
  | Optrouter.Limit _ -> Alcotest.fail "unexpected limit"
  | Optrouter.Near_optimal _ -> Alcotest.fail "unexpected near-optimal"

(* ------------------------------------------------------------------ *)
(* Clip validation                                                     *)
(* ------------------------------------------------------------------ *)

let test_clip_validate_ok () =
  let c = clip ~cols:3 ~rows:3 ~layers:2 [ two_pin "a" (0, 0) (2, 2) ] in
  Alcotest.(check bool) "valid" true (Result.is_ok (Clip.validate c))

let test_clip_validate_errors () =
  let bad_range = clip ~cols:3 ~rows:3 ~layers:2 [ two_pin "a" (0, 0) (5, 2) ] in
  Alcotest.(check bool) "out of range" true (Result.is_error (Clip.validate bad_range));
  let one_pin =
    clip ~cols:3 ~rows:3 ~layers:2 [ net "a" [ pin "p" [ (0, 0) ] ] ]
  in
  Alcotest.(check bool) "single pin" true (Result.is_error (Clip.validate one_pin));
  let shared =
    clip ~cols:3 ~rows:3 ~layers:2
      [ two_pin "a" (0, 0) (1, 1); two_pin "b" (1, 1) (2, 2) ]
  in
  Alcotest.(check bool) "shared access point" true
    (Result.is_error (Clip.validate shared));
  let no_access =
    clip ~cols:3 ~rows:3 ~layers:2
      [ net "a" [ pin "p" []; pin "q" [ (0, 0) ] ] ]
  in
  Alcotest.(check bool) "empty access" true (Result.is_error (Clip.validate no_access))

(* ------------------------------------------------------------------ *)
(* Graph construction                                                  *)
(* ------------------------------------------------------------------ *)

let test_graph_counts () =
  let c = clip ~cols:3 ~rows:2 ~layers:2 [ two_pin "a" (0, 0) (2, 1) ] in
  let g = Graph.build ~tech ~rules:(rule 1) c in
  (* grid 3*2*2 = 12 vertices + 2 supers *)
  Alcotest.(check int) "vertices" 14 g.Graph.nverts;
  (* M2 horizontal: 2 rows * 2 steps = 4 wires; M3 vertical: 3 cols * 1 = 3;
     vias: 3*2 = 6; access: 2 *)
  Alcotest.(check int) "edges" 15 (Graph.num_edges g);
  let wire_m2 = ref 0 and wire_m3 = ref 0 and vias = ref 0 and access = ref 0 in
  Array.iter
    (fun (e : Graph.edge) ->
      match e.Graph.kind with
      | Graph.Wire 0 -> incr wire_m2
      | Graph.Wire _ -> incr wire_m3
      | Graph.Via _ -> incr vias
      | Graph.Access -> incr access
      | Graph.Shape_lower _ | Graph.Shape_upper _ -> Alcotest.fail "no shapes")
    g.Graph.edges;
  Alcotest.(check int) "M2 wires" 4 !wire_m2;
  Alcotest.(check int) "M3 wires" 3 !wire_m3;
  Alcotest.(check int) "vias" 6 !vias;
  Alcotest.(check int) "access edges" 2 !access

let test_graph_unidirectional () =
  let c = clip ~cols:3 ~rows:3 ~layers:2 [ two_pin "a" (0, 0) (2, 2) ] in
  let g = Graph.build ~tech ~rules:(rule 1) c in
  Array.iter
    (fun (e : Graph.edge) ->
      match e.Graph.kind with
      | Graph.Wire z -> begin
        match (g.Graph.vertex.(e.Graph.u), g.Graph.vertex.(e.Graph.v)) with
        | Graph.Grid a, Graph.Grid b ->
          let dx = abs (a.x - b.x) and dy = abs (a.y - b.y) in
          if g.Graph.layers.(z).Layer.dir = Layer.Horizontal then begin
            Alcotest.(check int) "horizontal step" 1 dx;
            Alcotest.(check int) "no vertical step" 0 dy
          end
          else begin
            Alcotest.(check int) "vertical step" 1 dy;
            Alcotest.(check int) "no horizontal step" 0 dx
          end
        | _, _ -> Alcotest.fail "wire between non-grid vertices"
      end
      | Graph.Via _ | Graph.Access | Graph.Shape_lower _ | Graph.Shape_upper _
        -> ())
    g.Graph.edges

let test_graph_bidirectional_option () =
  let c = clip ~cols:3 ~rows:3 ~layers:1 [ two_pin "a" (0, 0) (2, 2) ] in
  let uni = Graph.build ~tech ~rules:(rule 1) c in
  let bi = Graph.build ~bidirectional:true ~tech ~rules:(rule 1) c in
  Alcotest.(check bool) "more edges when bidirectional" true
    (Graph.num_edges bi > Graph.num_edges uni)

let test_graph_obstruction () =
  let c = clip ~cols:3 ~rows:1 ~layers:1 [ two_pin "a" (0, 0) (2, 0) ] in
  let c_blocked =
    clip
      ~obstructions:[ (1, 0, 0) ]
      ~cols:3 ~rows:1 ~layers:1
      [ two_pin "a" (0, 0) (2, 0) ]
  in
  let g = Graph.build ~tech ~rules:(rule 1) c in
  let gb = Graph.build ~tech ~rules:(rule 1) c_blocked in
  (* blocking the middle vertex removes both wire edges *)
  Alcotest.(check int) "edges drop" (Graph.num_edges g - 2) (Graph.num_edges gb)

let test_graph_via_shapes () =
  let c = clip ~cols:3 ~rows:3 ~layers:2 [ two_pin "a" (0, 0) (2, 2) ] in
  let g =
    Graph.build ~via_shapes:[ Via_shape.square_2x2 ~cost:4 ] ~tech
      ~rules:(rule 1) c
  in
  (* 2x2 placements on a 3x3 grid: 2*2 = 4 anchors, one via layer *)
  Alcotest.(check int) "via reps" 4 (Array.length g.Graph.via_reps);
  Array.iter
    (fun (r : Graph.via_rep) ->
      Alcotest.(check int) "lower members" 4 (Array.length r.Graph.lower_members);
      Alcotest.(check int) "upper members" 4 (Array.length r.Graph.upper_members))
    g.Graph.via_reps

let test_graph_net_only_access () =
  let c =
    clip ~cols:3 ~rows:3 ~layers:2
      [ two_pin "a" (0, 0) (2, 0); two_pin "b" (0, 2) (2, 2) ]
  in
  let g = Graph.build ~tech ~rules:(rule 1) c in
  Array.iter
    (fun (e : Graph.edge) ->
      match e.Graph.kind with
      | Graph.Access -> Alcotest.(check bool) "access restricted" true (e.Graph.net_only <> None)
      | Graph.Wire _ | Graph.Via _ | Graph.Shape_lower _ | Graph.Shape_upper _
        -> Alcotest.(check bool) "others open" true (e.Graph.net_only = None))
    g.Graph.edges

let test_graph_bidirectional_with_shapes () =
  (* the two graph extensions compose: both wire directions everywhere
     plus multi-site via representatives *)
  let c = clip ~cols:4 ~rows:4 ~layers:2 [ two_pin "a" (0, 0) (3, 3) ] in
  let g =
    Graph.build ~bidirectional:true
      ~via_shapes:[ Via_shape.square_2x2 ~cost:4 ]
      ~tech ~rules:(rule 1) c
  in
  Alcotest.(check int) "reps placed" 9 (Array.length g.Graph.via_reps);
  (* wires: both directions on both layers: 2 * (4*3 + 4*3) *)
  let wires =
    Array.fold_left
      (fun acc (e : Graph.edge) ->
        match e.Graph.kind with
        | Graph.Wire _ -> acc + 1
        | Graph.Via _ | Graph.Shape_lower _ | Graph.Shape_upper _ | Graph.Access
          -> acc)
      0 g.Graph.edges
  in
  Alcotest.(check int) "bidirectional wires" 48 wires

(* ------------------------------------------------------------------ *)
(* OptRouter on hand-checked instances                                 *)
(* ------------------------------------------------------------------ *)

let test_route_straight_wire () =
  let c = clip ~cols:3 ~rows:1 ~layers:1 [ two_pin "a" (0, 0) (2, 0) ] in
  let r = route c in
  Alcotest.(check int) "cost = 2 wire segments" 2 (routed_cost r)

let test_route_needs_layer_change () =
  (* Pins in the same column: M2 is horizontal, so the route must hop to
     the vertical M3: via + wire + via = 4 + 2 + 4. *)
  let c = clip ~cols:1 ~rows:3 ~layers:2 [ two_pin "a" (0, 0) (0, 2) ] in
  let r = route c in
  Alcotest.(check int) "cost" 10 (routed_cost r);
  match r.Optrouter.verdict with
  | Optrouter.Routed sol ->
    Alcotest.(check int) "vias" 2 sol.Route.metrics.vias;
    Alcotest.(check int) "wirelength" 2 sol.Route.metrics.wirelength
  | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ -> Alcotest.fail "not routed"

let test_route_steiner_sharing () =
  (* Three pins on one track: a Steiner route shares the middle segment,
     so the cost equals the two-segment path, not two disjoint paths. *)
  let c =
    clip ~cols:3 ~rows:1 ~layers:1
      [
        net "a"
          [ pin "s" [ (0, 0) ]; pin "t1" [ (1, 0) ]; pin "t2" [ (2, 0) ] ];
      ]
  in
  let r = route c in
  Alcotest.(check int) "shared cost" 2 (routed_cost r)

let test_route_multi_access_pin () =
  (* The sink offers two access points; the nearer one must be used. *)
  let c =
    clip ~cols:4 ~rows:1 ~layers:1
      [
        net "a"
          [ pin "s" [ (0, 0) ]; pin "t" [ (1, 0); (3, 0) ] ];
      ]
  in
  let r = route c in
  Alcotest.(check int) "nearest access point" 1 (routed_cost r)

let test_route_two_nets_cross () =
  let c =
    clip ~cols:3 ~rows:3 ~layers:2
      [ two_pin "a" (0, 1) (2, 1); two_pin "b" (1, 0) (1, 2) ]
  in
  let r = route c in
  (* a: 2 wire on M2; b: via 4 + 2 wire on M3 + via 4 = 10 *)
  Alcotest.(check int) "crossing cost" 12 (routed_cost r)

let test_route_unroutable () =
  (* Only a horizontal layer but the net needs to change rows. *)
  let c =
    clip ~cols:3 ~rows:2 ~layers:1
      [ two_pin "a" (0, 0) (2, 1) ]
  in
  let r = route c in
  Alcotest.(check bool) "unroutable" true (r.Optrouter.verdict = Optrouter.Unroutable)

let test_route_via_restriction_cost () =
  (* A one-row hop needs two V23 vias in the same column at adjacent
     rows, which RULE6's orthogonal blocking forbids — the route must
     ladder over M4 instead. The pins sit in different columns so their
     access (V12) vias are legal under the rule. *)
  let c = clip ~cols:6 ~rows:3 ~layers:3 [ two_pin "a" (0, 0) (2, 1) ] in
  let free = routed_cost (route ~rules:(rule 1) c) in
  let blocked = routed_cost (route ~rules:(rule 6) c) in
  Alcotest.(check int) "RULE1 cost" 11 free;
  Alcotest.(check bool) "RULE6 is costlier" true (blocked > free)

let test_route_access_via_adjacency () =
  (* Pin access points are V12 vias, so via-adjacency restrictions apply
     between them — the paper's reason for excluding RULE9-class rules on
     N7-9T pin geometries (Section 4.1). Two pins whose only access
     points sit on adjacent tracks cannot both connect under RULE6. *)
  let c =
    clip ~cols:4 ~rows:3 ~layers:3
      [ two_pin "a" (0, 0) (3, 0); two_pin "b" (0, 1) (3, 2) ]
  in
  let free = route ~rules:(rule 1) c in
  Alcotest.(check bool) "routable without restrictions" true
    (match free.Optrouter.verdict with
    | Optrouter.Routed _ -> true
    | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ -> false);
  let blocked = route ~rules:(rule 6) c in
  (* access vias at (0,0) and (0,1) are orthogonally adjacent *)
  Alcotest.(check bool) "unroutable under RULE6" true
    (blocked.Optrouter.verdict = Optrouter.Unroutable);
  (* and the DRC agrees: the RULE1 routing violates RULE6 *)
  let g = Graph.build ~tech ~rules:(rule 1) c in
  match (Optrouter.route_graph ~rules:(rule 1) g).Optrouter.verdict with
  | Optrouter.Routed sol ->
    Alcotest.(check bool) "DRC flags access-via adjacency" true
      (List.exists
         (function Drc.Via_adjacency _ -> true | _ -> false)
         (Drc.check ~rules:(rule 6) g sol))
  | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ -> Alcotest.fail "route failed"

let test_route_sadp_eol_cost () =
  (* Two abutting wire segments on one SADP track create facing line ends;
     RULE2 must push one net off the layer. *)
  let c =
    clip ~cols:4 ~rows:1 ~layers:3
      [ two_pin "a" (0, 0) (1, 0); two_pin "b" (2, 0) (3, 0) ]
  in
  let free = routed_cost (route ~rules:(rule 1) c) in
  let sadp = routed_cost (route ~rules:(rule 2) c) in
  Alcotest.(check int) "RULE1 cost" 2 free;
  Alcotest.(check bool) "RULE2 is costlier" true (sadp > free)

let test_route_sadp_upper_layer_untouched () =
  (* The same clip under SADP >= M4 only: the M2 conflict is out of SADP
     scope, so the cost matches RULE1. *)
  let c =
    clip ~cols:4 ~rows:1 ~layers:2
      [ two_pin "a" (0, 0) (1, 0); two_pin "b" (2, 0) (3, 0) ]
  in
  let free = routed_cost (route ~rules:(rule 1) c) in
  let sadp_m4 = routed_cost (route ~rules:(rule 4) c) in
  Alcotest.(check int) "no impact" free sadp_m4

let test_route_sadp_aux_linearization_agrees () =
  let c =
    clip ~cols:4 ~rows:2 ~layers:3
      [ two_pin "a" (0, 0) (1, 0); two_pin "b" (2, 0) (3, 0) ]
  in
  let collapsed = routed_cost (route ~rules:(rule 2) c) in
  let config =
    Optrouter.make_config
      ~options:{ Formulate.default_options with sadp_aux_vars = true }
      ()
  in
  let aux = routed_cost (route ~config ~rules:(rule 2) c) in
  Alcotest.(check int) "same optimum" collapsed aux

let test_route_via_shape_preferred () =
  (* With a cheaper 2x1 bar via available and free space, the optimum
     uses it instead of two single vias. *)
  let c = clip ~cols:2 ~rows:3 ~layers:2 [ two_pin "a" (0, 0) (0, 2) ] in
  let config =
    Optrouter.make_config ~via_shapes:[ Via_shape.bar_2x1 ~cost:4 ] ()
  in
  let r = route ~config c in
  match r.Optrouter.verdict with
  | Optrouter.Routed sol ->
    (* single vias would cost 4 each; bars cost 3: 3+2+3 = 8 *)
    Alcotest.(check int) "cost with bars" 8 sol.Route.metrics.cost;
    Alcotest.(check int) "two via instances" 2 sol.Route.metrics.vias
  | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ -> Alcotest.fail "not routed"

let test_formulation_e_var_accessor () =
  let c =
    clip ~cols:3 ~rows:2 ~layers:2
      [ two_pin "a" (0, 0) (2, 0); two_pin "b" (0, 1) (2, 1) ]
  in
  let g = Graph.build ~tech ~rules:(rule 1) c in
  let form = Formulate.build ~rules:(rule 1) g in
  let lp = Formulate.lp form in
  Array.iteri
    (fun gid (e : Graph.edge) ->
      for net = 0 to 1 do
        for dir = 0 to 1 do
          let col = Formulate.e_var form ~net ~edge:gid ~dir in
          match e.Graph.net_only with
          | Some owner when owner <> net ->
            Alcotest.(check int) "foreign access edge has no column" (-1) col
          | Some _ | None ->
            Alcotest.(check bool) "column in range" true
              (col >= 0 && col < Optrouter_ilp.Lp.nvars lp);
            (* and it is a binary with the edge's cost as objective *)
            let v = lp.Optrouter_ilp.Lp.vars.(col) in
            Alcotest.(check bool) "is binary" true
              (v.Optrouter_ilp.Lp.kind = Optrouter_ilp.Lp.Integer);
            Alcotest.(check (float 1e-9)) "cost as objective"
              (float_of_int e.Graph.cost) v.Optrouter_ilp.Lp.obj
        done
      done)
    g.Graph.edges

let test_formulation_sizes () =
  let c = clip ~cols:3 ~rows:3 ~layers:2 [ two_pin "a" (0, 0) (2, 2) ] in
  let g = Graph.build ~tech ~rules:(rule 2) c in
  let collapsed = Formulate.build ~rules:(rule 2) g in
  let aux =
    Formulate.build
      ~options:{ Formulate.default_options with sadp_aux_vars = true }
      ~rules:(rule 2) g
  in
  let sc = Formulate.sizes collapsed and sa = Formulate.sizes aux in
  Alcotest.(check bool) "aux mode has more variables" true (sa.vars > sc.vars);
  Alcotest.(check bool) "aux mode has more rows" true (sa.rows > sc.rows);
  Alcotest.(check int) "same binaries (p and q are continuous)" sc.binaries
    sa.binaries;
  Alcotest.(check bool) "vars positive" true (sc.vars > 0);
  Alcotest.(check bool) "nonzeros positive" true (sc.nonzeros > 0)

let test_route_with_obstruction_detours () =
  (* Blocking the straight path forces a detour over M3/M4. *)
  let free = clip ~cols:3 ~rows:1 ~layers:3 [ two_pin "a" (0, 0) (2, 0) ] in
  let blocked =
    clip
      ~obstructions:[ (1, 0, 0) ]
      ~cols:3 ~rows:1 ~layers:3
      [ two_pin "a" (0, 0) (2, 0) ]
  in
  let base = routed_cost (route free) in
  let detour = routed_cost (route blocked) in
  Alcotest.(check int) "straight" 2 base;
  Alcotest.(check bool) "detour is costlier" true (detour > base)

let test_route_graph_reuse () =
  (* route_graph on a prebuilt graph gives the same answer as route. *)
  let c = clip ~cols:4 ~rows:2 ~layers:2 [ two_pin "a" (0, 0) (3, 1) ] in
  let rules = rule 1 in
  let g = Graph.build ~tech ~rules c in
  let via_clip = routed_cost (route ~rules c) in
  match (Optrouter.route_graph ~rules g).Optrouter.verdict with
  | Optrouter.Routed sol ->
    Alcotest.(check int) "same cost" via_clip sol.Route.metrics.cost
  | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ -> Alcotest.fail "route_graph failed"

let test_route_without_heuristic_incumbent () =
  (* Disabling the maze warm start must not change the optimum. *)
  let c =
    clip ~cols:4 ~rows:3 ~layers:2
      [ two_pin "a" (0, 0) (3, 2); two_pin "b" (3, 0) (0, 2) ]
  in
  let cold_config = Optrouter.make_config ~heuristic_incumbent:false () in
  Alcotest.(check int) "same optimum"
    (routed_cost (route c))
    (routed_cost (route ~config:cold_config c))

let test_route_solution_helpers () =
  (* two rows: the row-1 edges are guaranteed unused by the optimum *)
  let c = clip ~cols:3 ~rows:2 ~layers:1 [ two_pin "a" (0, 0) (2, 0) ] in
  let rules = rule 1 in
  let g = Graph.build ~tech ~rules c in
  match (Optrouter.route_graph ~rules g).Optrouter.verdict with
  | Optrouter.Routed sol ->
    let owned = Route.edge_set sol ~net:0 in
    List.iter
      (fun gid ->
        Alcotest.(check bool) "edge_set contains route edges" true (owned gid);
        Alcotest.(check (option int)) "uses_edge agrees" (Some 0)
          (Route.uses_edge sol gid))
      sol.Route.routes.(0).Route.edges;
    Alcotest.(check bool) "unused edge not owned" true
      (not
         (List.for_all owned
            (List.init (Graph.num_edges g) Fun.id)))
  | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ -> Alcotest.fail "route failed"

let test_route_limit_verdict () =
  (* An unreachable node budget forces the Limit verdict. *)
  let c =
    clip ~cols:5 ~rows:4 ~layers:3
      [ two_pin "a" (0, 0) (4, 3); two_pin "b" (4, 0) (0, 3) ]
  in
  let config =
    Optrouter.make_config ~heuristic_incumbent:false
      ~milp:(Optrouter_ilp.Milp.make_params ~max_nodes:0 ())
      ()
  in
  match (route ~config c).Optrouter.verdict with
  | Optrouter.Limit _ -> ()
  | Optrouter.Routed _ -> Alcotest.fail "cannot be solved in zero nodes"
  | Optrouter.Unroutable -> Alcotest.fail "the clip is routable"
  | Optrouter.Near_optimal _ -> Alcotest.fail "unexpected near-optimal"

let test_graph_site_index () =
  let c = clip ~cols:3 ~rows:2 ~layers:3 [ two_pin "a" (0, 0) (2, 1) ] in
  let g = Graph.build ~tech ~rules:(rule 1) c in
  (* every grid position on a via layer carries a via edge whose lower
     endpoint is the matching grid vertex *)
  for z = 0 to 1 do
    for y = 0 to 1 do
      for x = 0 to 2 do
        match g.Graph.via_site.(Graph.site_index g ~x ~y ~z) with
        | None -> Alcotest.fail "missing via site"
        | Some gid ->
          let e = g.Graph.edges.(gid) in
          Alcotest.(check int) "lower endpoint"
            (Graph.grid_vertex g ~x ~y ~z)
            e.Graph.u
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* DRC                                                                 *)
(* ------------------------------------------------------------------ *)

let solution_of c rules =
  let g = Graph.build ~tech ~rules c in
  let r = Optrouter.route_graph ~rules g in
  match r.Optrouter.verdict with
  | Optrouter.Routed sol -> (g, sol)
  | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ -> Alcotest.fail "not routed"

let test_drc_accepts_optimal () =
  let c =
    clip ~cols:3 ~rows:3 ~layers:2
      [ two_pin "a" (0, 1) (2, 1); two_pin "b" (1, 0) (1, 2) ]
  in
  let g, sol = solution_of c (rule 1) in
  Alcotest.(check int) "no violations" 0 (List.length (Drc.check ~rules:(rule 1) g sol))

let test_drc_detects_edge_conflict () =
  (* Reassign net a's route to net b: every edge is now claimed twice. *)
  let c =
    clip ~cols:3 ~rows:2 ~layers:1
      [ two_pin "a" (0, 0) (2, 0); two_pin "b" (0, 1) (2, 1) ]
  in
  let g, sol = solution_of c (rule 1) in
  let stolen =
    {
      Route.routes =
        [|
          sol.Route.routes.(0);
          { Route.net = 1; edges = sol.Route.routes.(0).Route.edges };
        |];
      metrics = sol.Route.metrics;
    }
  in
  let viols = Drc.check ~rules:(rule 1) g stolen in
  Alcotest.(check bool) "edge conflicts found" true
    (List.exists (function Drc.Edge_conflict _ -> true | _ -> false) viols)

let test_drc_detects_disconnection () =
  let c = clip ~cols:3 ~rows:1 ~layers:1 [ two_pin "a" (0, 0) (2, 0) ] in
  let g, sol = solution_of c (rule 1) in
  let broken =
    {
      Route.routes =
        [| { Route.net = 0; edges = List.tl sol.Route.routes.(0).Route.edges } |];
      metrics = sol.Route.metrics;
    }
  in
  let viols = Drc.check ~rules:(rule 1) g broken in
  Alcotest.(check bool) "disconnected" true
    (List.exists (function Drc.Disconnected _ -> true | _ -> false) viols)

let test_drc_detects_via_adjacency () =
  (* Route under RULE1 (vias end up adjacent), then check against RULE6. *)
  let c =
    clip ~cols:3 ~rows:2 ~layers:2
      [ two_pin "a" (0, 0) (0, 1); two_pin "b" (1, 0) (1, 1) ]
  in
  let g, sol = solution_of c (rule 1) in
  let viols = Drc.check ~rules:(rule 6) g sol in
  Alcotest.(check bool) "via adjacency flagged" true
    (List.exists (function Drc.Via_adjacency _ -> true | _ -> false) viols)

let test_drc_detects_shape_blocking () =
  (* Route a via-shape clip, then plant a second net's wire inside the
     footprint: the checker must flag it. *)
  let c =
    clip ~cols:3 ~rows:3 ~layers:2
      [ two_pin "a" (0, 0) (0, 2); two_pin "b" (2, 0) (2, 2) ]
  in
  let rules = rule 1 in
  let g =
    Graph.build ~via_shapes:[ Via_shape.square_2x2 ~cost:4 ]
      ~single_vias:false ~tech ~rules c
  in
  match (Optrouter.route_graph ~rules g).Optrouter.verdict with
  | Optrouter.Routed sol ->
    Alcotest.(check int) "clean as routed" 0
      (List.length (Drc.check ~rules g sol));
    (* move net b's route onto net a's (overlapping a's via footprint) *)
    let tampered =
      {
        Route.routes =
          [|
            sol.Route.routes.(0);
            { Route.net = 1; edges = sol.Route.routes.(0).Route.edges };
          |];
        metrics = sol.Route.metrics;
      }
    in
    let viols = Drc.check ~rules g tampered in
    Alcotest.(check bool) "footprint/ownership violations found" true
      (viols <> [])
  | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ -> Alcotest.fail "route failed"

let test_drc_detects_dangling () =
  let c = clip ~cols:4 ~rows:1 ~layers:1 [ two_pin "a" (0, 0) (2, 0) ] in
  let g, sol = solution_of c (rule 1) in
  (* graft an unused wire edge onto the route: creates a stub *)
  let spare =
    let rec find gid =
      if gid >= Graph.num_edges g then Alcotest.fail "no spare edge"
      else
        let e = g.Graph.edges.(gid) in
        match e.Graph.kind with
        | Graph.Wire _ when not (List.mem gid sol.Route.routes.(0).Route.edges)
          -> gid
        | Graph.Wire _ | Graph.Via _ | Graph.Shape_lower _ | Graph.Shape_upper _
        | Graph.Access ->
          find (gid + 1)
    in
    find 0
  in
  let padded =
    {
      Route.routes =
        [| { (sol.Route.routes.(0)) with Route.edges = spare :: sol.Route.routes.(0).Route.edges } |];
      metrics = sol.Route.metrics;
    }
  in
  let viols = Drc.check ~rules:(rule 1) g padded in
  Alcotest.(check bool) "dangling stub flagged" true
    (List.exists (function Drc.Dangling _ -> true | _ -> false) viols)

let test_drc_detects_sadp_conflict () =
  let c =
    clip ~cols:4 ~rows:1 ~layers:1
      [ two_pin "a" (0, 0) (1, 0); two_pin "b" (2, 0) (3, 0) ]
  in
  let g, sol = solution_of c (rule 1) in
  let viols = Drc.check ~rules:(rule 2) g sol in
  Alcotest.(check bool) "SADP EOL conflict flagged" true
    (List.exists (function Drc.Sadp_conflict _ -> true | _ -> false) viols)

(* Two vertical nets in adjacent columns: the RULE1 optimum drops both
   via pairs at the pin columns, a K4 in the DSA conflict graph (N28 has
   2 colors, pitch 1 track) — uncolorable. The checker must flag it
   under RULE12 and stay silent under RULE1. *)
let test_drc_detects_dsa_conflict () =
  let c =
    clip ~cols:4 ~rows:2 ~layers:2
      [ two_pin "a" (0, 0) (0, 1); two_pin "b" (1, 0) (1, 1) ]
  in
  let g, sol = solution_of c (rule 1) in
  let viols12 = Drc.check ~rules:(rule 12) g sol in
  Alcotest.(check bool) "DSA conflict flagged under RULE12" true
    (List.exists (function Drc.Dsa_conflict _ -> true | _ -> false) viols12);
  Alcotest.(check int) "clean under RULE1" 0
    (List.length (Drc.check ~rules:(rule 1) g sol))

(* The same clip routed under RULE12: the ILP must spread the via pairs
   past the DSA pitch (a paid detour) and deliver a DRC-clean routing —
   strictly costlier than the RULE1 optimum it had to abandon. *)
let test_route_dsa_forces_detour () =
  let c =
    clip ~cols:4 ~rows:2 ~layers:2
      [ two_pin "a" (0, 0) (0, 1); two_pin "b" (1, 0) (1, 1) ]
  in
  let base = routed_cost (route ~rules:(rule 1) c) in
  let g12, sol12 = solution_of c (rule 12) in
  Alcotest.(check int) "RULE12 routing is DRC-clean" 0
    (List.length (Drc.check ~rules:(rule 12) g12 sol12));
  Alcotest.(check bool) "detour costs strictly more than RULE1" true
    (sol12.Route.metrics.cost > base)

(* A lone via pair is 2-colorable: RULE12 must not tax colorable
   layouts — same optimum as RULE1. *)
let test_route_dsa_colorable_free () =
  let c = clip ~cols:4 ~rows:2 ~layers:2 [ two_pin "a" (0, 0) (0, 1) ] in
  let base = routed_cost (route ~rules:(rule 1) c) in
  let g12, sol12 = solution_of c (rule 12) in
  Alcotest.(check int) "DRC-clean" 0
    (List.length (Drc.check ~rules:(rule 12) g12 sol12));
  Alcotest.(check int) "no cost penalty when colorable" base
    sol12.Route.metrics.cost

(* ------------------------------------------------------------------ *)
(* Paper-size construction (no solving)                                *)
(* ------------------------------------------------------------------ *)

let test_paper_size_construction () =
  (* The full 7x10-track, 8-layer clip of the paper: the graph and the
     ILP must elaborate with the expected magnitudes even though solving
     it is out of test budget. *)
  let nets =
    [
      two_pin "n0" (0, 0) (6, 9);
      two_pin "n1" (1, 1) (5, 8);
      two_pin "n2" (2, 0) (2, 7);
      two_pin "n3" (6, 0) (0, 6);
      two_pin "n4" (0, 9) (6, 9 - 1);
      two_pin "n5" (1, 5) (5, 2);
    ]
  in
  let c = clip ~cols:7 ~rows:10 ~layers:8 nets in
  let rules = rule 8 in
  let g = Graph.build ~tech ~rules c in
  (* 7*10*8 grid vertices + 12 supers *)
  Alcotest.(check int) "vertices" ((7 * 10 * 8) + 12) g.Graph.nverts;
  (* wires: 4 horizontal layers of 10*6 + 4 vertical of 7*9; vias 7*10*7;
     access 12 *)
  Alcotest.(check int) "edges"
    ((4 * 60) + (4 * 63) + (7 * 10 * 7) + 12)
    (Graph.num_edges g);
  let form = Formulate.build ~rules g in
  let s = Formulate.sizes form in
  Alcotest.(check bool) "vars in the tens of thousands" true
    (s.Formulate.vars > 10_000 && s.Formulate.vars < 100_000);
  Alcotest.(check bool) "rows in the tens of thousands" true
    (s.Formulate.rows > 10_000 && s.Formulate.rows < 200_000)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random clips with a planted non-overlapping pin layout. *)
let random_clip_gen =
  let open QCheck.Gen in
  let* cols = int_range 3 4 in
  let* rows = int_range 2 3 in
  let* layers = int_range 2 3 in
  let* nnets = int_range 1 2 in
  let* shuffled =
    let all =
      List.concat_map (fun x -> List.init rows (fun y -> (x, y))) (List.init cols Fun.id)
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
        match (List.nth_opt positions (2 * k), List.nth_opt positions ((2 * k) + 1)) with
        | Some p1, Some p2 -> two_pin (Printf.sprintf "n%d" k) p1 p2
        | _, _ -> two_pin (Printf.sprintf "n%d" k) (0, 0) (cols - 1, rows - 1))
  in
  return (clip ~cols ~rows ~layers nets)

let arbitrary_clip =
  QCheck.make ~print:(Format.asprintf "%a" Clip.pp) random_clip_gen

(* OptRouter solutions pass the independent DRC under the rule they were
   routed with (the driver's DRC audit would raise; we re-check RULE6 and
   RULE3 solutions explicitly to exercise the rule-specific paths). *)
let prop_optimal_is_drc_clean =
  QCheck.Test.make ~name:"optimal routes are DRC-clean under their rules"
    ~count:15 arbitrary_clip (fun c ->
      List.for_all
        (fun rules ->
          let g = Graph.build ~tech ~rules c in
          match (Optrouter.route_graph ~rules g).Optrouter.verdict with
          | Optrouter.Routed sol -> Drc.check ~rules g sol = []
          | Optrouter.Unroutable -> true
          | Optrouter.Limit _ | Optrouter.Near_optimal _ -> true)
        [ rule 1; rule 3; rule 6 ])

(* Tightening rules can never reduce the optimal cost. *)
let prop_rule_monotonicity =
  QCheck.Test.make ~name:"rule cost is monotone vs RULE1" ~count:15
    arbitrary_clip (fun c ->
      let cost rules =
        match (route ~rules c).Optrouter.verdict with
        | Optrouter.Routed sol -> Some sol.Route.metrics.cost
        | Optrouter.Unroutable -> None
        | Optrouter.Limit _ | Optrouter.Near_optimal _ -> None
      in
      match cost (rule 1) with
      | None -> true
      | Some base ->
        List.for_all
          (fun r ->
            match cost (rule r) with
            | None -> true (* became unroutable: consistent with tightening *)
            | Some k -> k >= base)
          [ 2; 6; 9 ])

(* The paper's aggregated-flow formulation and the default disaggregated
   one must agree on optimal cost (they share integer feasible sets). *)
let prop_flow_formulations_agree =
  QCheck.Test.make ~name:"aggregated and disaggregated flows agree" ~count:10
    arbitrary_clip (fun c ->
      let cost options =
        let config = Optrouter.make_config ~options () in
        match (route ~config c).Optrouter.verdict with
        | Optrouter.Routed sol -> Some sol.Route.metrics.cost
        | Optrouter.Unroutable -> None
        | Optrouter.Limit _ | Optrouter.Near_optimal _ -> None
      in
      match
        ( cost Formulate.default_options,
          cost { Formulate.default_options with Formulate.aggregated_flows = true } )
      with
      | Some a, Some b -> a = b
      | None, None -> true
      | Some _, None | None, Some _ -> false)

(* OptRouter is never beaten by the heuristic baseline (footnote 6). *)
let prop_optimal_beats_heuristic =
  QCheck.Test.make ~name:"optimal cost <= heuristic cost" ~count:10
    arbitrary_clip (fun c ->
      let rules = rule 1 in
      let g = Graph.build ~tech ~rules c in
      match (Optrouter.route_graph ~rules g).Optrouter.verdict with
      | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ -> true
      | Optrouter.Routed opt -> (
        match (Optrouter_maze.Maze.route ~rules g).Optrouter_maze.Maze.solution with
        | None -> true
        | Some heur ->
          opt.Route.metrics.cost <= heur.Route.metrics.cost))

(* Optimal solutions round-trip through the encoder: the decoded routing,
   lifted back to an LP point, is feasible and costs exactly the decoded
   metrics. This pins down Formulate.encode, which seeds branch and bound
   with heuristic incumbents. *)
let prop_encode_roundtrip =
  QCheck.Test.make ~name:"decoded solutions re-encode feasibly" ~count:12
    arbitrary_clip (fun c ->
      let rules = rule 1 in
      let g = Graph.build ~tech ~rules c in
      match (Optrouter.route_graph ~rules g).Optrouter.verdict with
      | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ -> true
      | Optrouter.Routed sol -> (
        let form = Formulate.build ~rules g in
        match Formulate.encode form sol with
        | None -> false
        | Some x ->
          let lp = Formulate.lp form in
          Optrouter_ilp.Lp.is_feasible lp x
          && Float.abs
               (Optrouter_ilp.Lp.objective_value lp x
               -. float_of_int sol.Route.metrics.cost)
             <= 1e-6))

(* Reported metrics equal the recomputed ones. *)
let prop_metrics_consistent =
  QCheck.Test.make ~name:"decoded metrics equal recomputed metrics" ~count:15
    arbitrary_clip (fun c ->
      let g = Graph.build ~tech ~rules:(rule 1) c in
      match (Optrouter.route_graph ~rules:(rule 1) g).Optrouter.verdict with
      | Optrouter.Routed sol ->
        let m = Route.metrics_of g sol.Route.routes in
        m = sol.Route.metrics
      | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ -> true)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "router"
    [
      ( "clip",
        [
          Alcotest.test_case "validate ok" `Quick test_clip_validate_ok;
          Alcotest.test_case "validate errors" `Quick test_clip_validate_errors;
        ] );
      ( "graph",
        [
          Alcotest.test_case "vertex and edge counts" `Quick test_graph_counts;
          Alcotest.test_case "unidirectional layers" `Quick
            test_graph_unidirectional;
          Alcotest.test_case "bidirectional option" `Quick
            test_graph_bidirectional_option;
          Alcotest.test_case "obstructions remove edges" `Quick
            test_graph_obstruction;
          Alcotest.test_case "via shapes create reps" `Quick
            test_graph_via_shapes;
          Alcotest.test_case "access edges are net-restricted" `Quick
            test_graph_net_only_access;
          Alcotest.test_case "bidirectional + via shapes compose" `Quick
            test_graph_bidirectional_with_shapes;
        ] );
      ( "optrouter",
        [
          Alcotest.test_case "straight wire" `Quick test_route_straight_wire;
          Alcotest.test_case "layer change" `Quick test_route_needs_layer_change;
          Alcotest.test_case "steiner sharing" `Quick test_route_steiner_sharing;
          Alcotest.test_case "multiple access points" `Quick
            test_route_multi_access_pin;
          Alcotest.test_case "two nets crossing" `Quick test_route_two_nets_cross;
          Alcotest.test_case "unroutable clip" `Quick test_route_unroutable;
          Alcotest.test_case "via restriction cost" `Quick
            test_route_via_restriction_cost;
          Alcotest.test_case "access-via adjacency" `Quick
            test_route_access_via_adjacency;
          Alcotest.test_case "SADP EOL cost" `Quick test_route_sadp_eol_cost;
          Alcotest.test_case "SADP above M4 has no impact" `Quick
            test_route_sadp_upper_layer_untouched;
          Alcotest.test_case "SADP aux linearization agrees" `Slow
            test_route_sadp_aux_linearization_agrees;
          Alcotest.test_case "via shapes preferred" `Quick
            test_route_via_shape_preferred;
          Alcotest.test_case "formulation sizes" `Quick test_formulation_sizes;
          Alcotest.test_case "e_var accessor" `Quick
            test_formulation_e_var_accessor;
          Alcotest.test_case "obstruction detour" `Quick
            test_route_with_obstruction_detours;
          Alcotest.test_case "route_graph reuse" `Quick test_route_graph_reuse;
          Alcotest.test_case "no heuristic incumbent" `Quick
            test_route_without_heuristic_incumbent;
          Alcotest.test_case "solution helpers" `Quick
            test_route_solution_helpers;
          Alcotest.test_case "limit verdict" `Quick test_route_limit_verdict;
          Alcotest.test_case "via site index" `Quick test_graph_site_index;
        ] );
      ( "drc",
        [
          Alcotest.test_case "accepts optimal routes" `Quick
            test_drc_accepts_optimal;
          Alcotest.test_case "detects edge conflicts" `Quick
            test_drc_detects_edge_conflict;
          Alcotest.test_case "detects disconnection" `Quick
            test_drc_detects_disconnection;
          Alcotest.test_case "detects via adjacency" `Quick
            test_drc_detects_via_adjacency;
          Alcotest.test_case "detects SADP conflicts" `Quick
            test_drc_detects_sadp_conflict;
          Alcotest.test_case "detects via-shape footprint abuse" `Quick
            test_drc_detects_shape_blocking;
          Alcotest.test_case "detects dangling stubs" `Quick
            test_drc_detects_dangling;
          Alcotest.test_case "detects DSA uncolorable vias" `Quick
            test_drc_detects_dsa_conflict;
          Alcotest.test_case "RULE12 forces a paid detour" `Quick
            test_route_dsa_forces_detour;
          Alcotest.test_case "RULE12 is free when colorable" `Quick
            test_route_dsa_colorable_free;
        ] );
      ( "paper-size",
        [
          Alcotest.test_case "construction magnitudes" `Quick
            test_paper_size_construction;
        ] );
      ( "properties",
        [
          qtest prop_optimal_is_drc_clean;
          qtest prop_rule_monotonicity;
          qtest prop_metrics_consistent;
          qtest prop_flow_formulations_agree;
          qtest prop_optimal_beats_heuristic;
          qtest prop_encode_roundtrip;
        ] );
    ]
