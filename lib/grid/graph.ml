module Layer = Optrouter_tech.Layer
module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Via_shape = Optrouter_tech.Via_shape

type vertex =
  | Grid of { x : int; y : int; z : int }
  | Via_node of { shape : Via_shape.t; x : int; y : int; z : int }
  | Super of { net : int; is_source : bool; pin_name : string }

type edge_kind =
  | Wire of int
  | Via of int
  | Shape_lower of int
  | Shape_upper of int
  | Access

type edge = {
  u : int;
  v : int;
  kind : edge_kind;
  cost : int;
  net_only : int option;
}

type net_ctx = { n_name : string; source : int; sinks : int array }

type via_rep = {
  rep : int;
  shape : Via_shape.t;
  anchor : int * int * int;
  lower_members : int array;
  upper_members : int array;
  lower_edges : int array;
  upper_edges : int array;
}

type t = {
  clip : Clip.t;
  layers : Layer.t array;
  nverts : int;
  vertex : vertex array;
  edges : edge array;
  adj : (int * int) array array;
  nets : net_ctx array;
  via_site : int option array;
  via_reps : via_rep array;
  access_sites : int list array;
      (** per z=0 grid vertex: access (V12) edges landing there *)
  blocked : bool array;
  dsa_colors : int;
  dsa_pitch : int;
}

let grid_vertex g ~x ~y ~z = ((z * g.clip.Clip.rows) + y) * g.clip.Clip.cols + x

let site_index g ~x ~y ~z = ((z * g.clip.Clip.rows) + y) * g.clip.Clip.cols + x

let num_edges g = Array.length g.edges
let num_nets g = Array.length g.nets

let allowed g k gid =
  match g.edges.(gid).net_only with None -> true | Some k' -> k = k'

let other_end _g e v =
  if e.u = v then e.v
  else begin
    assert (e.v = v);
    e.u
  end

let pp_vertex g ppf i =
  match g.vertex.(i) with
  | Grid { x; y; z } -> Format.fprintf ppf "v(%d,%d,M%d)" x y (z + 2)
  | Via_node { shape; x; y; z } ->
    Format.fprintf ppf "%s(%d,%d,M%d)" shape.Via_shape.name x y (z + 2)
  | Super { net; is_source; pin_name } ->
    Format.fprintf ppf "%s[%s,net%d]" (if is_source then "src" else "snk")
      pin_name net

let build ?(via_shapes = []) ?(single_vias = true) ?(bidirectional = false)
    ~tech ~rules (clip : Clip.t) =
  (match Clip.validate clip with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Graph.build: " ^ msg));
  let layers =
    Tech.stack tech rules |> Array.of_list
    |> (fun a -> Array.sub a 0 (min clip.layers (Array.length a)))
  in
  if Array.length layers < clip.layers then
    invalid_arg "Graph.build: clip uses more layers than the technology has";
  let cols = clip.cols and rows = clip.rows and nz = clip.layers in
  let ngrid = cols * rows * nz in
  let blocked = Array.make ngrid false in
  List.iter
    (fun (x, y, z) -> blocked.(((z * rows) + y) * cols + x) <- true)
    clip.obstructions;
  let gid x y z = ((z * rows) + y) * cols + x in
  (* Vertices beyond the grid are allocated on the fly. *)
  let extra = ref [] in
  let nverts = ref ngrid in
  let add_vertex v =
    let id = !nverts in
    extra := v :: !extra;
    incr nverts;
    id
  in
  let edges = ref [] in
  let nedges = ref 0 in
  let add_edge ?net_only u v kind cost =
    let id = !nedges in
    edges := { u; v; kind; cost; net_only } :: !edges;
    incr nedges;
    id
  in
  let usable x y z = not blocked.(gid x y z) in
  (* Wire edges along each layer's preferred direction (plus the other
     direction when the bidirectional ablation is on). *)
  for z = 0 to nz - 1 do
    let dir = layers.(z).Layer.dir in
    let horizontal = dir = Layer.Horizontal in
    if horizontal || bidirectional then
      for y = 0 to rows - 1 do
        for x = 0 to cols - 2 do
          if usable x y z && usable (x + 1) y z then
            ignore (add_edge (gid x y z) (gid (x + 1) y z) (Wire z) 1)
        done
      done;
    if (not horizontal) || bidirectional then
      for x = 0 to cols - 1 do
        for y = 0 to rows - 2 do
          if usable x y z && usable x (y + 1) z then
            ignore (add_edge (gid x y z) (gid x (y + 1) z) (Wire z) 1)
        done
      done
  done;
  (* Single-site vias at every stacked pair of usable vertices. *)
  let via_site = Array.make (cols * rows * max 1 (nz - 1)) None in
  if single_vias then
    for z = 0 to nz - 2 do
      for y = 0 to rows - 1 do
        for x = 0 to cols - 1 do
          if usable x y z && usable x y (z + 1) then begin
            let id =
              add_edge (gid x y z) (gid x y (z + 1)) (Via z) tech.Tech.via_weight
            in
            via_site.(((z * rows) + y) * cols + x) <- Some id
          end
        done
      done
    done;
  (* Multi-site via shapes: a representative vertex tied to all member
     vertices on both layers. The full shape cost sits on the lower edges,
     so any route through the representative pays it exactly once. *)
  let via_reps = ref [] in
  List.iter
    (fun (shape : Via_shape.t) ->
      for z = 0 to nz - 2 do
        for y = 0 to rows - shape.height do
          for x = 0 to cols - shape.width do
            let sites = Via_shape.sites shape in
            let ok =
              List.for_all
                (fun (dx, dy) ->
                  usable (x + dx) (y + dy) z && usable (x + dx) (y + dy) (z + 1))
                sites
            in
            if ok then begin
              let rep = add_vertex (Via_node { shape; x; y; z }) in
              let lower_members =
                List.map (fun (dx, dy) -> gid (x + dx) (y + dy) z) sites
              in
              let upper_members =
                List.map (fun (dx, dy) -> gid (x + dx) (y + dy) (z + 1)) sites
              in
              let lower_edges =
                List.map
                  (fun m -> add_edge m rep (Shape_lower z) shape.cost)
                  lower_members
              in
              let upper_edges =
                List.map (fun m -> add_edge rep m (Shape_upper z) 0) upper_members
              in
              via_reps :=
                {
                  rep;
                  shape;
                  anchor = (x, y, z);
                  lower_members = Array.of_list lower_members;
                  upper_members = Array.of_list upper_members;
                  lower_edges = Array.of_list lower_edges;
                  upper_edges = Array.of_list upper_edges;
                }
                :: !via_reps
            end
          done
        done
      done)
    via_shapes;
  (* Virtual pin terminals: a supersource for each net's first pin and one
     supersink per remaining pin, attached to every access point. *)
  let nets =
    List.mapi
      (fun k (net : Clip.net) ->
        match net.pins with
        | [] | [ _ ] -> assert false (* validate rejects these *)
        | src :: sink_pins ->
          let attach pin is_source =
            let s = add_vertex (Super { net = k; is_source; pin_name = pin.Clip.p_name }) in
            List.iter
              (fun (x, y) ->
                if usable x y 0 then
                  ignore (add_edge ~net_only:k s (gid x y 0) Access 0))
              pin.Clip.access;
            s
          in
          let source = attach src true in
          let sinks = List.map (fun pin -> attach pin false) sink_pins in
          { n_name = net.n_name; source; sinks = Array.of_list sinks })
      clip.nets
  in
  let vertex = Array.make !nverts (Grid { x = 0; y = 0; z = 0 }) in
  for z = 0 to nz - 1 do
    for y = 0 to rows - 1 do
      for x = 0 to cols - 1 do
        vertex.(gid x y z) <- Grid { x; y; z }
      done
    done
  done;
  List.iteri
    (fun i v -> vertex.(!nverts - 1 - i) <- v)
    !extra;
  let edges = Array.of_list (List.rev !edges) in
  let adj_lists = Array.make !nverts [] in
  Array.iteri
    (fun id e ->
      adj_lists.(e.u) <- (id, e.v) :: adj_lists.(e.u);
      adj_lists.(e.v) <- (id, e.u) :: adj_lists.(e.v))
    edges;
  let adj = Array.map (fun l -> Array.of_list (List.rev l)) adj_lists in
  let access_sites = Array.make (cols * rows) [] in
  Array.iteri
    (fun id e ->
      match e.kind with
      | Access ->
        let grid_end = if e.u < ngrid then e.u else e.v in
        if grid_end < cols * rows then
          access_sites.(grid_end) <- id :: access_sites.(grid_end)
      | Wire _ | Via _ | Shape_lower _ | Shape_upper _ -> ())
    edges;
  let blocked_full = Array.make !nverts false in
  Array.blit blocked 0 blocked_full 0 ngrid;
  {
    clip;
    layers;
    nverts = !nverts;
    vertex;
    edges;
    adj;
    nets = Array.of_list nets;
    via_site;
    via_reps = Array.of_list (List.rev !via_reps);
    access_sites;
    blocked = blocked_full;
    dsa_colors = Tech.dsa_colors tech;
    dsa_pitch = Tech.dsa_pitch_tracks tech;
  }
