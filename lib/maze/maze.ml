module Clip = Optrouter_grid.Clip
module Graph = Optrouter_grid.Graph
module Rules = Optrouter_tech.Rules
module Route = Optrouter_grid.Route
module Drc = Optrouter_grid.Drc
module Log = Optrouter_report.Report.Log

type params = { restarts : int; rip_up_rounds : int; seed : int }

let default_params = { restarts = 8; rip_up_rounds = 4; seed = 7 }

type result = {
  solution : Route.solution option;
  restarts_used : int;
  rip_ups : int;
}

type state = {
  g : Graph.t;
  rules : Rules.t;
  edge_owner : int array;
  vertex_owner : int array;  (** grid vertices only *)
  penalty : float array;
      (** per edge, from violation repair rounds: penalising the offending
          edges (not vertices) lets a route still reach a pin vertex by a
          via stack while making the conflicting wire arrival expensive *)
  edge_cost : float array;  (** the caller's per-edge search cost *)
  vertex_cost : float array;
      (** the caller's per-vertex search cost, paid on arrival *)
  pin_owner : int array;
      (** per z=0 grid vertex: the net owning an access point there, or
          -1. Other nets must not wire across a pin location — the ILP
          discovers this through vertex exclusivity, a greedy search has
          to be told. *)
  ngrid : int;
}

let grid_coords st v =
  let cols = st.g.clip.Clip.cols and rows = st.g.clip.Clip.rows in
  let z = v / (cols * rows) in
  let rem = v mod (cols * rows) in
  (rem mod cols, rem / cols, z)

(* A via may not be placed next to any already-placed via (own or foreign)
   under an adjacency restriction. *)
let via_placement_ok st gid =
  let offsets () =
    Rules.blocked_neighbour_offsets st.rules.Rules.via_restriction
  in
  let cols = st.g.clip.Clip.cols and rows = st.g.clip.Clip.rows in
  match st.g.edges.(gid).Graph.kind with
  | Graph.Wire _ | Graph.Shape_lower _ | Graph.Shape_upper _ -> true
  | Graph.Access -> (
    (* an access edge is a V12 via: no other used access point nearby *)
    let offsets = offsets () in
    offsets = []
    ||
    let e = st.g.edges.(gid) in
    let grid_end = if e.Graph.u < st.ngrid then e.Graph.u else e.Graph.v in
    if grid_end >= cols * rows then true
    else
      let x, y, _ = grid_coords st grid_end in
      List.for_all
        (fun (dx, dy) ->
          let x' = x + dx and y' = y + dy in
          if x' < 0 || x' >= cols || y' < 0 || y' >= rows then true
          else
            List.for_all
              (fun other -> st.edge_owner.(other) < 0)
              st.g.access_sites.((y' * cols) + x'))
        offsets)
  | Graph.Via _ ->
    let offsets = offsets () in
    offsets = []
    ||
    let x, y, z = grid_coords st st.g.edges.(gid).Graph.u in
    List.for_all
      (fun (dx, dy) ->
        let x' = x + dx and y' = y + dy in
        if x' < 0 || x' >= cols || y' < 0 || y' >= rows then true
        else
          match st.g.via_site.(((z * rows) + y') * cols + x') with
          | None -> true
          | Some other -> st.edge_owner.(other) < 0)
      offsets

let edge_usable st k gid dst =
  Graph.allowed st.g k gid
  && st.edge_owner.(gid) < 0
  && (dst >= st.ngrid || st.vertex_owner.(dst) < 0 || st.vertex_owner.(dst) = k)
  && (dst >= Array.length st.pin_owner
     || st.pin_owner.(dst) < 0
     || st.pin_owner.(dst) = k)
  && via_placement_ok st gid

(* Multi-source Dijkstra from the net's committed tree to the nearest
   unreached sink. Returns the edge list of the found path. *)
let search st k sources targets =
  let n = st.g.nverts in
  let dist = Array.make n infinity in
  let prev_edge = Array.make n (-1) in
  let q = Pqueue.create () in
  List.iter
    (fun v ->
      dist.(v) <- 0.0;
      Pqueue.push q 0.0 v)
    sources;
  let target_set = Hashtbl.create 4 in
  List.iter (fun t -> Hashtbl.replace target_set t ()) targets;
  let found = ref None in
  (try
     while not (Pqueue.is_empty q) do
       let d = Pqueue.min_key q in
       let v = Pqueue.pop q in
       if d <= dist.(v) then begin
         if Hashtbl.mem target_set v then begin
           found := Some v;
           raise Exit
         end;
         Array.iter
           (fun (gid, other) ->
             if edge_usable st k gid other then begin
               let nd =
                 d
                 +. float_of_int st.g.edges.(gid).Graph.cost
                 +. st.penalty.(gid) +. st.edge_cost.(gid)
                 +. st.vertex_cost.(other)
               in
               if nd < dist.(other) then begin
                 dist.(other) <- nd;
                 prev_edge.(other) <- gid;
                 Pqueue.push q nd other
               end
             end)
           st.g.adj.(v)
       end
     done
   with Exit -> ());
  match !found with
  | None -> None
  | Some t ->
    let rec backtrack v acc =
      let gid = prev_edge.(v) in
      if gid < 0 then acc
      else begin
        let e = st.g.edges.(gid) in
        let u = Graph.other_end st.g e v in
        if dist.(u) = 0.0 && prev_edge.(u) < 0 then gid :: acc
        else backtrack u (gid :: acc)
      end
    in
    Some (t, backtrack t [])

let commit st k edges =
  List.iter
    (fun gid ->
      st.edge_owner.(gid) <- k;
      let e = st.g.edges.(gid) in
      if e.Graph.u < st.ngrid then st.vertex_owner.(e.Graph.u) <- k;
      if e.Graph.v < st.ngrid then st.vertex_owner.(e.Graph.v) <- k)
    edges

let rip st k =
  Array.iteri
    (fun gid owner -> if owner = k then st.edge_owner.(gid) <- -1)
    st.edge_owner;
  Array.iteri
    (fun v owner -> if owner = k then st.vertex_owner.(v) <- -1)
    st.vertex_owner

(* Route net k as a Steiner tree: connect sinks one at a time, reusing the
   committed tree as Dijkstra sources. *)
let route_net st k =
  let net = st.g.nets.(k) in
  let tree_vertices = ref [ net.Graph.source ] in
  let tree_edges = ref [] in
  let remaining = ref (Array.to_list net.Graph.sinks) in
  let ok = ref true in
  while !ok && !remaining <> [] do
    match search st k !tree_vertices !remaining with
    | None -> ok := false
    | Some (reached, path) ->
      commit st k path;
      tree_edges := path @ !tree_edges;
      List.iter
        (fun gid ->
          let e = st.g.edges.(gid) in
          tree_vertices := e.Graph.u :: e.Graph.v :: !tree_vertices)
        path;
      remaining := List.filter (fun t -> t <> reached) !remaining
  done;
  if !ok then Some !tree_edges
  else begin
    rip st k;
    None
  end

let net_order rng nnets first =
  let order = Array.init nnets Fun.id in
  if not first then
    for i = nnets - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- tmp
    done;
  order

(* Edges to penalise so a reroute avoids re-creating the violation. *)
let involved_edges st viol =
  let wire_edges_at v =
    Array.to_list st.g.adj.(v)
    |> List.filter_map (fun (gid, _) ->
           match st.g.edges.(gid).Graph.kind with
           | Graph.Wire _ -> Some gid
           | Graph.Via _ | Graph.Shape_lower _ | Graph.Shape_upper _
           | Graph.Access ->
             None)
  in
  let all_edges_at v = Array.to_list st.g.adj.(v) |> List.map fst in
  match viol with
  | Drc.Sadp_conflict { v1; v2; _ } -> wire_edges_at v1 @ wire_edges_at v2
  | Drc.Via_adjacency { site1; site2 } -> [ site1; site2 ]
  | Drc.Dsa_conflict { sites } -> sites
  | Drc.Vertex_conflict { vertex; _ } -> all_edges_at vertex
  | Drc.Shape_side { rep; _ } | Drc.Shape_blocking { rep; _ } -> all_edges_at rep
  | Drc.Edge_conflict _ | Drc.Disconnected _ | Drc.Dangling _ -> []

let nets_of_violation (sol : Route.solution) st viol =
  let owner_of_edge gid =
    match Route.uses_edge sol gid with Some k -> [ k ] | None -> []
  in
  match viol with
  | Drc.Edge_conflict { net1; net2; _ } | Drc.Vertex_conflict { net1; net2; _ }
    ->
    [ net1; net2 ]
  | Drc.Disconnected { net; _ } | Drc.Dangling { net; _ } -> [ net ]
  | Drc.Via_adjacency { site1; site2 } ->
    owner_of_edge site1 @ owner_of_edge site2
  | Drc.Dsa_conflict { sites } -> List.concat_map owner_of_edge sites
  | Drc.Shape_side { net; _ } -> [ net ]
  | Drc.Shape_blocking { net; other; _ } -> [ net; other ]
  | Drc.Sadp_conflict { v1; v2; _ } ->
    let owner v = if v < st.ngrid then st.vertex_owner.(v) else -1 in
    List.filter (fun k -> k >= 0) [ owner v1; owner v2 ]

let attempt ~rules ~edge_cost ~vertex_cost ~order ~reorder ~rounds
    (g : Graph.t) =
  let nnets = Array.length g.nets in
  let ngrid = g.clip.Clip.cols * g.clip.Clip.rows * g.clip.Clip.layers in
  let st =
    {
      g;
      rules;
      edge_owner = Array.make (Graph.num_edges g) (-1);
      vertex_owner = Array.make ngrid (-1);
      penalty = Array.make (Graph.num_edges g) 0.0;
      edge_cost;
      vertex_cost;
      pin_owner =
        (let owners =
           Array.make (g.Graph.clip.Clip.cols * g.Graph.clip.Clip.rows) (-1)
         in
         Array.iteri
           (fun v edges ->
             List.iter
               (fun gid ->
                 match g.Graph.edges.(gid).Graph.net_only with
                 | Some k -> owners.(v) <- k
                 | None -> ())
               edges)
           g.Graph.access_sites;
         owners);
      ngrid;
    }
  in
  let routes = Array.make nnets None in
  (* Route every net of [order], even past a failure; true if all landed. *)
  let route_all ~on_fail order =
    Array.fold_left
      (fun ok k ->
        match route_net st k with
        | Some edges ->
          routes.(k) <- Some { Route.net = k; edges };
          ok
        | None ->
          on_fail k;
          false)
      true order
  in
  let solution_of_routes () =
    let rs =
      Array.map
        (function Some r -> r | None -> { Route.net = 0; edges = [] })
        routes
    in
    { Route.routes = rs; metrics = Route.metrics_of g rs }
  in
  let rip_ups = ref 0 in
  (* Violation repair: penalise the offending edges, rip the nets and
     reroute them, until the DRC is clean or [rounds] reroutes are spent. *)
  let rec repair round =
    let sol = solution_of_routes () in
    match Drc.check ~rules g sol with
    | [] -> Some sol
    | _ :: _ when round >= rounds -> None
    | viols ->
      Log.debug ~src:"maze" (fun () ->
          Format.asprintf "round %d: %d violations%a" (round + 1)
            (List.length viols)
            (fun ppf ->
              List.iter (fun v ->
                  Format.fprintf ppf "@\n  %a" (Drc.pp_violation g) v))
            viols);
      let guilty =
        List.concat_map
          (fun viol ->
            List.iter
              (fun gid -> st.penalty.(gid) <- st.penalty.(gid) +. 8.0)
              (involved_edges st viol);
            nets_of_violation sol st viol)
          viols
        |> List.sort_uniq Int.compare
      in
      if guilty = [] then None
      else begin
        (* Rip everything, not just the guilty nets: the innocent nets'
           vertex claims are usually what pins the guilty ones into the
           conflict. The accumulated penalties steer the full reroute. *)
        rip_ups := !rip_ups + List.length guilty;
        let order = reorder () in
        Array.fill st.edge_owner 0 (Array.length st.edge_owner) (-1);
        Array.fill st.vertex_owner 0 ngrid (-1);
        if route_all ~on_fail:ignore order then repair (round + 1) else None
      end
  in
  let unroutable k =
    Log.debug ~src:"maze" (fun () -> Printf.sprintf "net %d unroutable" k)
  in
  let solution =
    if route_all ~on_fail:unroutable order then repair 0 else None
  in
  (solution, !rip_ups)

let route ?(params = default_params) ~rules (g : Graph.t) =
  let nnets = Array.length g.nets in
  let rng = Random.State.make [| params.seed |] in
  let vertex_cost = Array.make g.nverts 0.0 in
  let best = ref None in
  let rip_ups = ref 0 in
  for restart = 0 to params.restarts - 1 do
    (* Fresh per-edge cost noise per restart diversifies the first nets'
       paths, so later nets see different congestion. *)
    let edge_cost =
      Array.init (Graph.num_edges g) (fun _ ->
          if restart = 0 then 0.0 else Random.State.float rng 0.45)
    in
    let order = net_order rng nnets (restart = 0) in
    let solution, ripped =
      attempt ~rules ~edge_cost ~vertex_cost ~order
        ~reorder:(fun () -> net_order rng nnets false)
        ~rounds:params.rip_up_rounds g
    in
    rip_ups := !rip_ups + ripped;
    match (solution, !best) with
    | None, _ -> ()
    | Some sol, Some (b : Route.solution)
      when b.metrics.cost <= sol.Route.metrics.cost ->
      ()
    | Some sol, (Some _ | None) -> best := Some sol
  done;
  {
    solution = !best;
    restarts_used = max 0 params.restarts;
    rip_ups = !rip_ups;
  }
