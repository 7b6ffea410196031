module Drc = Optrouter_grid.Drc
module Route = Optrouter_grid.Route
module Clip = Optrouter_grid.Clip
module Graph = Optrouter_grid.Graph
module Layer = Optrouter_tech.Layer
module Rules = Optrouter_tech.Rules
module Lp = Optrouter_ilp.Lp

type options = { sadp_aux_vars : bool; aggregated_flows : bool }

let default_options = { sadp_aux_vars = false; aggregated_flows = false }

type sizes = { vars : int; binaries : int; rows : int; nonzeros : int }

type t = {
  lp : Lp.t;
  graph : Graph.t;
  options : options;
  e : int array;
  f : int array;
      (** (((net * |E| + edge) * 2 + dir) * max_sinks) + sink -> column;
          aggregated mode uses sink slot 0 only *)
  max_sinks : int;
  u : int array;  (** (net * ngrid + vertex) -> column or -1 *)
  p : int array;  (** ((net * ngrid) + vertex) * 2 + side -> column or -1 *)
  products : (int, (int option * int * int) list) Hashtbl.t;
      (** p column -> [(q column, a, b)] product pairs defining it *)
  dsa_cols : (int, int array) Hashtbl.t;
      (** via edge id -> color columns (only conflicted sites, only
          under DSA rules; empty otherwise) *)
  dsa_pairs : (int * int) list;
      (** conflicting via-edge pairs, mirroring the dsa_cf_ rows *)
}

let lp t = t.lp
let graph t = t.graph
let options t = t.options

let sizes t =
  let binaries =
    Array.fold_left
      (fun acc (v : Lp.var) -> if v.kind = Lp.Integer then acc + 1 else acc)
      0 t.lp.vars
  in
  {
    vars = Lp.nvars t.lp;
    binaries;
    rows = Lp.nrows t.lp;
    nonzeros = Lp.nnz t.lp;
  }

let e_var t ~net ~edge ~dir =
  t.e.(((net * Array.length t.graph.edges) + edge) * 2 + dir)

(* Directions: dir 0 carries flow u -> v, dir 1 carries v -> u. *)
let arc_out g edge_id dir v =
  let e = g.Graph.edges.(edge_id) in
  if dir = 0 then e.Graph.u = v else e.Graph.v = v

(* SADP side convention: From_low is the paper's p_l (the wire arrives from
   the low-coordinate side along the preferred direction, so the line end
   at this vertex points high); From_high is p_r. *)
type sadp_side = From_low | From_high

let side_index = function From_low -> 0 | From_high -> 1

let build ?(options = default_options) ~(rules : Rules.t) (g : Graph.t) =
  let b = Lp.Builder.create () in
  let cols = g.clip.Clip.cols
  and rows = g.clip.Clip.rows
  and nz = g.clip.Clip.layers in
  let ngrid = cols * rows * nz in
  let nedges = Array.length g.edges in
  let nnets = Array.length g.nets in
  let sinks k = Array.length g.nets.(k).Graph.sinks in
  let max_sinks =
    let m = ref 1 in
    for k = 0 to nnets - 1 do
      m := max !m (sinks k)
    done;
    !m
  in
  let e = Array.make (nnets * nedges * 2) (-1) in
  let f = Array.make (nnets * nedges * 2 * max_sinks) (-1) in
  let idx k gid dir = ((k * nedges) + gid) * 2 + dir in
  let fidx k gid dir t = (idx k gid dir * max_sinks) + t in

  (* ---- arc variables with linking rows (2)-(3) ----
     The paper's formulation carries one aggregated flow per arc, with the
     source emitting |T_k| units and e >= f / |T_k|. By default we use the
     disaggregated per-sink unit flows instead: e >= f_t for each sink t
     and e <= sum_t f_t. Integer optima coincide, but the disaggregated LP
     relaxation is strictly tighter (shared Steiner arcs cannot be paid
     fractionally), which is what makes the bundled branch-and-bound
     practical. [aggregated_flows = true] restores the paper's exact
     formulation. *)
  (* Objective coefficients per the rule configuration's objective mode:
     the default reproduces the standard edge costs; the via-objective
     modes re-weight (or isolate) the cost-carrying via edges. *)
  let obj_coeff gid =
    let ed = g.edges.(gid) in
    let via =
      match ed.Graph.kind with
      | Graph.Via _ | Graph.Shape_lower _ -> true
      | Graph.Wire _ | Graph.Shape_upper _ | Graph.Access -> false
    in
    Rules.objective_coeff rules.Rules.objective ~via ~cost:ed.Graph.cost
  in
  for k = 0 to nnets - 1 do
    let nt = sinks k in
    for gid = 0 to nedges - 1 do
      if Graph.allowed g k gid then begin
        let cost = obj_coeff gid in
        for dir = 0 to 1 do
          let suffix = Printf.sprintf "n%d_g%d_d%d" k gid dir in
          let ev = Lp.Builder.add_binary b ~name:("e_" ^ suffix) ~obj:cost in
          e.(idx k gid dir) <- ev;
          if options.aggregated_flows then begin
            let fv =
              Lp.Builder.add_var b ~name:("f_" ^ suffix) ~lower:0.0
                ~upper:(float_of_int nt) ~obj:0.0 Lp.Continuous
            in
            f.(fidx k gid dir 0) <- fv;
            Lp.Builder.add_row b ~name:("lk2_" ^ suffix)
              [ (ev, float_of_int nt); (fv, -1.0) ]
              Lp.Ge 0.0;
            Lp.Builder.add_row b ~name:("lk3_" ^ suffix)
              [ (ev, 1.0); (fv, -1.0) ]
              Lp.Le 0.0
          end
          else begin
            let fvs =
              List.init nt (fun t ->
                  let fv =
                    Lp.Builder.add_var b
                      ~name:(Printf.sprintf "f_%s_t%d" suffix t)
                      ~lower:0.0 ~upper:1.0 ~obj:0.0 Lp.Continuous
                  in
                  f.(fidx k gid dir t) <- fv;
                  Lp.Builder.add_row b
                    ~name:(Printf.sprintf "lk2_%s_t%d" suffix t)
                    [ (ev, 1.0); (fv, -1.0) ]
                    Lp.Ge 0.0;
                  fv)
            in
            Lp.Builder.add_row b ~name:("lk3_" ^ suffix)
              ((ev, 1.0) :: List.map (fun fv -> (fv, -1.0)) fvs)
              Lp.Le 0.0
          end
        done
      end
    done
  done;

  (* Summed e-usage (both directions, all permitted nets) of an edge. *)
  let edge_usage_terms ?except gid =
    let terms = ref [] in
    for k = 0 to nnets - 1 do
      let skip = match except with Some k' -> k = k' | None -> false in
      if (not skip) && Graph.allowed g k gid then
        terms := (e.(idx k gid 0), 1.0) :: (e.(idx k gid 1), 1.0) :: !terms
    done;
    !terms
  in

  (* ---- arc exclusivity (1) ---- *)
  for gid = 0 to nedges - 1 do
    match edge_usage_terms gid with
    | [] -> ()
    | terms ->
      Lp.Builder.add_row b ~name:(Printf.sprintf "cap_g%d" gid) terms Lp.Le 1.0
  done;

  (* ---- flow conservation (4) ---- *)
  for k = 0 to nnets - 1 do
    let net = g.nets.(k) in
    let commodities =
      (* aggregated: one commodity of |T_k| units absorbed 1 per sink;
         disaggregated: one unit commodity per sink *)
      if options.aggregated_flows then [ None ]
      else List.init (sinks k) (fun t -> Some t)
    in
    List.iter
      (fun commodity ->
        let slot = Option.value commodity ~default:0 in
        for v = 0 to g.nverts - 1 do
          let terms = ref [] in
          Array.iter
            (fun (gid, _other) ->
              if Graph.allowed g k gid then
                for dir = 0 to 1 do
                  let sign = if arc_out g gid dir v then 1.0 else -1.0 in
                  terms := (f.(fidx k gid dir slot), sign) :: !terms
                done)
            g.adj.(v);
          if !terms <> [] then begin
            let rhs =
              match commodity with
              | None ->
                if v = net.Graph.source then float_of_int (sinks k)
                else if Array.exists (fun s -> s = v) net.Graph.sinks then -1.0
                else 0.0
              | Some t ->
                if v = net.Graph.source then 1.0
                else if net.Graph.sinks.(t) = v then -1.0
                else 0.0
            in
            Lp.Builder.add_row b
              ~name:(Printf.sprintf "flow_n%d_t%d_v%d" k slot v)
              !terms Lp.Eq rhs
          end
        done)
      commodities
  done;

  (* ---- vertex exclusivity (see interface) ---- *)
  let u_arr = Array.make (nnets * ngrid) (-1) in
  if nnets > 1 then
    for v = 0 to ngrid - 1 do
      if not g.blocked.(v) then begin
        let us = ref [] in
        for k = 0 to nnets - 1 do
          let incident =
            Array.to_list g.adj.(v)
            |> List.filter (fun (gid, _) -> Graph.allowed g k gid)
          in
          if incident <> [] then begin
            let u =
              Lp.Builder.add_var b
                ~name:(Printf.sprintf "u_n%d_v%d" k v)
                ~lower:0.0 ~upper:1.0 ~obj:0.0 Lp.Continuous
            in
            u_arr.((k * ngrid) + v) <- u;
            List.iter
              (fun (gid, _) ->
                Lp.Builder.add_row b
                  ~name:(Printf.sprintf "vx_n%d_v%d_g%d" k v gid)
                  [ (e.(idx k gid 0), 1.0); (e.(idx k gid 1), 1.0); (u, -1.0) ]
                  Lp.Le 0.0)
              incident;
            us := (u, 1.0) :: !us
          end
        done;
        match !us with
        | [] | [ _ ] -> ()
        | us ->
          Lp.Builder.add_row b ~name:(Printf.sprintf "vcap_v%d" v) us Lp.Le 1.0
      end
    done;

  (* ---- via adjacency restrictions ---- *)
  let canonical_offsets =
    match rules.Rules.via_restriction with
    | Rules.No_blocking -> []
    | Rules.Orthogonal -> [ (1, 0); (0, 1) ]
    | Rules.Orthogonal_diagonal -> [ (1, 0); (0, 1); (1, 1); (1, -1) ]
  in
  if canonical_offsets <> [] then
    for z = 0 to nz - 2 do
      for y = 0 to rows - 1 do
        for x = 0 to cols - 1 do
          match g.via_site.(((z * rows) + y) * cols + x) with
          | None -> ()
          | Some site1 ->
            List.iter
              (fun (dx, dy) ->
                let x' = x + dx and y' = y + dy in
                if x' >= 0 && x' < cols && y' >= 0 && y' < rows then
                  match g.via_site.(((z * rows) + y') * cols + x') with
                  | None -> ()
                  | Some site2 ->
                    let terms =
                      edge_usage_terms site1 @ edge_usage_terms site2
                    in
                    Lp.Builder.add_row b
                      ~name:
                        (Printf.sprintf "viadj_z%d_%d_%d_%d_%d" z x y x' y')
                      terms Lp.Le 1.0)
              canonical_offsets
        done
      done
    done;

  (* Pin access points are V12 vias: the same adjacency restriction
     applies between them (and it is what disqualifies several rules on
     N7-9T pin geometries, Section 4.1). *)
  if canonical_offsets <> [] then begin
    let access_usage x y =
      List.concat_map
        (fun gid ->
          let terms = ref [] in
          for k = 0 to nnets - 1 do
            if Graph.allowed g k gid then
              terms := (e.(idx k gid 0), 1.0) :: (e.(idx k gid 1), 1.0) :: !terms
          done;
          !terms)
        g.access_sites.((y * cols) + x)
    in
    for y = 0 to rows - 1 do
      for x = 0 to cols - 1 do
        if g.access_sites.((y * cols) + x) <> [] then
          List.iter
            (fun (dx, dy) ->
              let x' = x + dx and y' = y + dy in
              if
                x' >= 0 && x' < cols && y' >= 0 && y' < rows
                && g.access_sites.((y' * cols) + x') <> []
              then begin
                match (access_usage x y, access_usage x' y') with
                | [], _ | _, [] -> ()
                | t1, t2 ->
                  Lp.Builder.add_row b
                    ~name:(Printf.sprintf "v12adj_%d_%d_%d_%d" x y x' y')
                    (t1 @ t2) Lp.Le 1.0
              end)
            canonical_offsets
      done
    done
  end;

  (* ---- DSA via coloring (RULE12+, Ait-Ferhat et al.) ----
     Per conflicted single-via site, one binary per assembly color with
     an assignment row tying the color sum to the via's usage
     (dsa_col_*: sum_j c_j - usage = 0, so a placed via takes exactly
     one color and an unplaced one takes none), and per conflicting pair
     and color a packing row (dsa_cf_*: the two vias cannot share it).
     Together these make the placed-via conflict graph k-colorable.
     The color binaries MUST be integral: fractionally, 1/2-1/2 splits
     would 2-color any odd cycle and the relaxation would stop cutting.
     Access (V12) cuts are excluded — they sit on the pin mask, outside
     the assembly flow — as are multi-site shapes (their grouping is the
     manufacturing alternative to DSA). [Drc] mirrors all three choices. *)
  let dsa_cols = Hashtbl.create 16 in
  let dsa_pairs = ref [] in
  if rules.Rules.dsa then begin
    let k_colors = g.Graph.dsa_colors and pitch = g.Graph.dsa_pitch in
    let conflicts = ref [] in
    for z = 0 to nz - 2 do
      for y = 0 to rows - 1 do
        for x = 0 to cols - 1 do
          match g.via_site.(((z * rows) + y) * cols + x) with
          | None -> ()
          | Some site1 ->
            (* canonical half-neighbourhood: each unordered pair once *)
            for dy = 0 to pitch do
              for dx = -pitch to pitch do
                if dy > 0 || dx > 0 then begin
                  let x' = x + dx and y' = y + dy in
                  if x' >= 0 && x' < cols && y' >= 0 && y' < rows then
                    match g.via_site.(((z * rows) + y') * cols + x') with
                    | None -> ()
                    | Some site2 -> conflicts := (site1, site2) :: !conflicts
                end
              done
            done
        done
      done
    done;
    let col_vars gid =
      match Hashtbl.find_opt dsa_cols gid with
      | Some arr -> arr
      | None ->
        let arr =
          Array.init k_colors (fun j ->
              Lp.Builder.add_binary b
                ~name:(Printf.sprintf "c_g%d_j%d" gid j)
                ~obj:0.0)
        in
        Lp.Builder.add_row b
          ~name:(Printf.sprintf "dsa_col_g%d" gid)
          (Array.to_list (Array.map (fun cv -> (cv, 1.0)) arr)
          @ List.map (fun (ev, _) -> (ev, -1.0)) (edge_usage_terms gid))
          Lp.Eq 0.0;
        Hashtbl.replace dsa_cols gid arr;
        arr
    in
    List.iter
      (fun (s1, s2) ->
        let a1 = col_vars s1 and a2 = col_vars s2 in
        for j = 0 to k_colors - 1 do
          Lp.Builder.add_row b
            ~name:(Printf.sprintf "dsa_cf_g%d_g%d_j%d" s1 s2 j)
            [ (a1.(j), 1.0); (a2.(j), 1.0) ]
            Lp.Le 1.0
        done)
      (List.rev !conflicts);
    dsa_pairs := List.rev !conflicts
  end;

  (* ---- via shapes (5) ---- *)
  Array.iter
    (fun (rep : Graph.via_rep) ->
      let side_rows k edges label =
        let terms =
          Array.to_list edges
          |> List.concat_map (fun gid ->
                 [ (e.(idx k gid 0), 1.0); (e.(idx k gid 1), 1.0) ])
        in
        Lp.Builder.add_row b
          ~name:(Printf.sprintf "vs%s_r%d_n%d" label rep.Graph.rep k)
          terms Lp.Le 1.0
      in
      let rep_edges =
        Array.to_list rep.Graph.lower_edges @ Array.to_list rep.Graph.upper_edges
      in
      for k = 0 to nnets - 1 do
        side_rows k rep.Graph.lower_edges "lo";
        side_rows k rep.Graph.upper_edges "up";
        (* Blocking: if net k drives this via shape (usage U^k = 2), no
           other net may touch any footprint vertex. *)
        let usage_terms =
          List.concat_map
            (fun gid -> [ (e.(idx k gid 0), 1.0); (e.(idx k gid 1), 1.0) ])
            rep_edges
        in
        let members =
          Array.to_list rep.Graph.lower_members
          @ Array.to_list rep.Graph.upper_members
        in
        List.iter
          (fun mv ->
            Array.iter
              (fun (gid2, _) ->
                if not (List.mem gid2 rep_edges) then begin
                  match edge_usage_terms ~except:k gid2 with
                  | [] -> ()
                  | others ->
                    let others = List.map (fun (v, _) -> (v, 2.0)) others in
                    Lp.Builder.add_row b
                      ~name:
                        (Printf.sprintf "vsblk_r%d_n%d_m%d_g%d" rep.Graph.rep k
                           mv gid2)
                      (usage_terms @ others) Lp.Le 2.0
                end)
              g.adj.(mv))
          members
      done)
    g.via_reps;

  (* ---- SADP end-of-line rules (6)-(12) ---- *)
  (* Wire edge towards the low/high along-axis neighbour of each grid
     vertex, for O(1) lookup during p-variable creation. *)
  let wire_low = Array.make ngrid (-1) and wire_high = Array.make ngrid (-1) in
  Array.iteri
    (fun gid (ed : Graph.edge) ->
      match ed.Graph.kind with
      | Graph.Wire _ ->
        (* u precedes v along the axis by construction *)
        wire_high.(ed.Graph.u) <- gid;
        wire_low.(ed.Graph.v) <- gid
      | Graph.Via _ | Graph.Shape_lower _ | Graph.Shape_upper _ | Graph.Access
        -> ())
    g.edges;
  let vialike v k =
    Array.to_list g.adj.(v)
    |> List.filter_map (fun (gid, _) ->
           match g.edges.(gid).Graph.kind with
           | Graph.Via _ | Graph.Shape_lower _ | Graph.Shape_upper _
           | Graph.Access ->
             if Graph.allowed g k gid then Some gid else None
           | Graph.Wire _ -> None)
  in
  (* p variable per (net, grid vertex, side), created on demand. *)
  let p = Array.make (nnets * ngrid * 2) (-1) in
  let pidx k v side = ((k * ngrid) + v) * 2 + side_index side in
  let sadp_layer z = g.layers.(z).Layer.patterning = Layer.Sadp in
  let arc_into gid v = if g.edges.(gid).Graph.v = v then 0 else 1 in
  let arc_outof gid v = 1 - arc_into gid v in
  let products = Hashtbl.create 256 in
  let record_product pv q a bvar =
    let old = Option.value ~default:[] (Hashtbl.find_opt products pv) in
    Hashtbl.replace products pv ((q, a, bvar) :: old)
  in
  let make_p k v side =
    let wire = match side with From_low -> wire_low.(v) | From_high -> wire_high.(v) in
    if wire < 0 || not (Graph.allowed g k wire) then -1
    else begin
      match vialike v k with
      | [] -> -1
      | vias ->
        (* p (and the aux q below) need no integrality: with integral arc
           variables the linearisation rows pin them to {0, 1}, and they
           carry no objective — declaring them continuous keeps them out
           of branch and bound entirely. *)
        let pv =
          Lp.Builder.add_var b
            ~name:(Printf.sprintf "p_n%d_v%d_s%d" k v (side_index side))
            ~lower:0.0 ~upper:1.0 ~obj:0.0 Lp.Continuous
        in
        let e_wire_in = e.(idx k wire (arc_into wire v)) in
        let e_wire_out = e.(idx k wire (arc_outof wire v)) in
        let add_product label a bvar =
          if options.sadp_aux_vars then begin
            (* Paper linearisation (8)-(9): auxiliary product binary. *)
            let q =
              Lp.Builder.add_var b
                ~name:(Printf.sprintf "q_%s" label)
                ~lower:0.0 ~upper:1.0 ~obj:0.0 Lp.Continuous
            in
            Lp.Builder.add_row b ~name:("qa_" ^ label)
              [ (q, 1.0); (a, -1.0) ]
              Lp.Le 0.0;
            Lp.Builder.add_row b ~name:("qb_" ^ label)
              [ (q, 1.0); (bvar, -1.0) ]
              Lp.Le 0.0;
            Lp.Builder.add_row b ~name:("qc_" ^ label)
              [ (q, 1.0); (a, -1.0); (bvar, -1.0) ]
              Lp.Ge (-1.0);
            Lp.Builder.add_row b ~name:("qp_" ^ label)
              [ (pv, 1.0); (q, -1.0) ]
              Lp.Ge 0.0;
            record_product pv (Some q) a bvar;
            Some q
          end
          else begin
            (* Collapsed: p >= a + b - 1 directly. Sufficient because p
               only appears in <=-1 packing rows. *)
            Lp.Builder.add_row b ~name:("pl_" ^ label)
              [ (pv, 1.0); (a, -1.0); (bvar, -1.0) ]
              Lp.Ge (-1.0);
            record_product pv None a bvar;
            None
          end
        in
        let qs = ref [] in
        List.iteri
          (fun i w ->
            let lbl suffix =
              Printf.sprintf "n%d_v%d_s%d_w%d_%s" k v (side_index side) i suffix
            in
            let e_w_out = e.(idx k w (arc_outof w v)) in
            let e_w_in = e.(idx k w (arc_into w v)) in
            (match add_product (lbl "a") e_wire_in e_w_out with
            | Some q -> qs := (q, 1.0) :: !qs
            | None -> ());
            match add_product (lbl "b") e_wire_out e_w_in with
            | Some q -> qs := (q, 1.0) :: !qs
            | None -> ())
          vias;
        if options.sadp_aux_vars && !qs <> [] then
          Lp.Builder.add_row b
            ~name:(Printf.sprintf "pub_n%d_v%d_s%d" k v (side_index side))
            ((pv, 1.0) :: List.map (fun (q, _) -> (q, -1.0)) !qs)
            Lp.Le 0.0;
        pv
    end
  in
  for z = 0 to nz - 1 do
    if sadp_layer z then
      for y = 0 to rows - 1 do
        for x = 0 to cols - 1 do
          let v = ((z * rows) + y) * cols + x in
          if not g.blocked.(v) then
            for k = 0 to nnets - 1 do
              p.(pidx k v From_low) <- make_p k v From_low;
              p.(pidx k v From_high) <- make_p k v From_high
            done
        done
      done
  done;
  (* Global EOL indicators are the per-net sums (10); the forbidden
     configurations (11)-(12) become packing rows over those sums. *)
  let p_terms v side =
    let terms = ref [] in
    for k = 0 to nnets - 1 do
      let col = p.(pidx k v side) in
      if col >= 0 then terms := (col, 1.0) :: !terms
    done;
    !terms
  in
  let seen_conflicts = Hashtbl.create 256 in
  let add_conflict (v1, s1) (v2, s2) =
    let key =
      let a = (v1, side_index s1) and bkey = (v2, side_index s2) in
      if a <= bkey then (a, bkey) else (bkey, a)
    in
    if not (Hashtbl.mem seen_conflicts key) then begin
      Hashtbl.add seen_conflicts key ();
      match (p_terms v1 s1, p_terms v2 s2) with
      | [], _ | _, [] -> ()
      | t1, t2 ->
        Lp.Builder.add_row b
          ~name:
            (Printf.sprintf "sadp_v%d_s%d_v%d_s%d" v1 (side_index s1) v2
               (side_index s2))
          (t1 @ t2) Lp.Le 1.0
    end
  in
  for z = 0 to nz - 1 do
    if sadp_layer z then begin
      let horizontal = g.layers.(z).Layer.dir = Layer.Horizontal in
      (* Local coordinates: a = along the preferred direction, c = across. *)
      let vat a c =
        let x, y = if horizontal then (a, c) else (c, a) in
        if x < 0 || x >= cols || y < 0 || y >= rows then None
        else Some (((z * rows) + y) * cols + x)
      in
      let amax = (if horizontal then cols else rows) - 1 in
      let cmax = (if horizontal then rows else cols) - 1 in
      for a = 0 to amax do
        for c = 0 to cmax do
          match vat a c with
          | None -> ()
          | Some v ->
            let conflict side offs other_side =
              List.iter
                (fun (da, dc) ->
                  match vat (a + da) (c + dc) with
                  | Some j -> add_conflict (v, side) (j, other_side)
                  | None -> ())
                offs
            in
            (* Facing tips: p_r(v) vs p_l at the five low-side sites
               (Figure 5(b)). *)
            conflict From_high
              [ (-1, 0); (-1, -1); (-1, 1); (0, -1); (0, 1) ]
              From_low;
            (* Same-direction tips (Figure 5(c)) and its mirror. *)
            conflict From_high
              [ (-1, 0); (-1, -1); (-1, 1); (1, -1); (1, 1) ]
              From_high;
            conflict From_low
              [ (1, 0); (1, -1); (1, 1); (-1, -1); (-1, 1) ]
              From_low
        done
      done
    end
  done;
  {
    lp = Lp.Builder.finish b;
    graph = g;
    options;
    e;
    f;
    max_sinks;
    u = u_arr;
    p;
    products;
    dsa_cols;
    dsa_pairs = !dsa_pairs;
  }

let decode t x =
  let g = t.graph in
  let nedges = Array.length g.edges in
  let routes =
    Array.init (Array.length g.nets) (fun k ->
        let edges = ref [] in
        for gid = nedges - 1 downto 0 do
          if Graph.allowed g k gid then begin
            let used dir =
              let col = t.e.(((k * nedges) + gid) * 2 + dir) in
              col >= 0 && x.(col) > 0.5
            in
            if used 0 || used 1 then edges := gid :: !edges
          end
        done;
        { Route.net = k; edges = !edges })
  in
  { Route.routes; metrics = Route.metrics_of g routes }

(* Lift a geometric routing solution to a full LP point: orient each net's
   edge set as a tree from its supersource to assign flows, then derive
   the u and p auxiliaries. Returns None when the edge set is not a clean
   Steiner tree (cycle, stub, disconnection) or when the resulting point
   violates the formulation — e.g. the heuristic router's geometric SADP
   semantics is slightly weaker than the ILP's conservative indicator, so
   a DRC-clean solution is not always ILP-feasible. *)
let encode t (sol : Route.solution) =
  let g = t.graph in
  let clip = g.Graph.clip in
  let ngrid = clip.Clip.cols * clip.Clip.rows * clip.Clip.layers in
  let nedges = Array.length g.edges in
  let nnets = Array.length g.nets in
  let x = Array.make (Lp.nvars t.lp) 0.0 in
  let ok = ref true in
  Array.iter
    (fun (r : Route.net_route) ->
      let k = r.Route.net in
      let net = g.nets.(k) in
      let used = Hashtbl.create 32 in
      List.iter (fun gid -> Hashtbl.replace used gid ()) r.Route.edges;
      let visited = Hashtbl.create 32 in
      let parent = Hashtbl.create 32 in
      let visited_edges = ref 0 in
      let is_sink v = Array.exists (fun s -> s = v) net.Graph.sinks in
      let arc_pos gid from_v =
        let dir = if g.edges.(gid).Graph.u = from_v then 0 else 1 in
        ((k * nedges) + gid) * 2 + dir
      in
      (* Returns the number of sinks in the subtree rooted at [v]. *)
      let rec dfs v parent_edge =
        Hashtbl.replace visited v ();
        let count = ref (if is_sink v then 1 else 0) in
        Array.iter
          (fun (gid, other) ->
            if gid <> parent_edge && Hashtbl.mem used gid then begin
              if Hashtbl.mem visited other then ok := false (* cycle *)
              else begin
                incr visited_edges;
                Hashtbl.replace parent other (gid, v);
                let below = dfs other gid in
                if below = 0 then ok := false (* dangling stub *)
                else begin
                  let pos = arc_pos gid v in
                  x.(t.e.(pos)) <- 1.0;
                  if t.options.aggregated_flows then
                    x.(t.f.(pos * t.max_sinks)) <- float_of_int below
                end;
                count := !count + below
              end
            end)
          g.adj.(v);
        !count
      in
      let total = dfs net.Graph.source (-1) in
      if total <> Array.length net.Graph.sinks then ok := false;
      if !visited_edges <> List.length r.Route.edges then ok := false;
      (* Disaggregated flows: one unit along each source-to-sink path. *)
      if (not t.options.aggregated_flows) && !ok then
        Array.iteri
          (fun tix sink ->
            let rec walk v =
              if v <> net.Graph.source then
                match Hashtbl.find_opt parent v with
                | None -> ok := false
                | Some (gid, pv) ->
                  x.(t.f.((arc_pos gid pv * t.max_sinks) + tix)) <- 1.0;
                  walk pv
            in
            walk sink)
          net.Graph.sinks;
      (* vertex-usage auxiliaries *)
      List.iter
        (fun gid ->
          let e = g.edges.(gid) in
          let claim v =
            if v < ngrid then begin
              let col = t.u.((k * ngrid) + v) in
              if col >= 0 then x.(col) <- 1.0
            end
          in
          claim e.Graph.u;
          claim e.Graph.v)
        r.Route.edges)
    sol.Route.routes;
  ignore nnets;
  (* DSA colors: the assignment rows force exactly one color per used
     conflicted via; pick one per via by backtracking against the
     conflict pairs. An uncolorable seed cannot be lifted (it is not
     DSA-feasible), so it is rejected like any other infeasible point. *)
  let encode_dsa () =
    if Hashtbl.length t.dsa_cols = 0 then true
    else begin
      let used = Hashtbl.create 16 in
      Array.iter
        (fun (r : Route.net_route) ->
          List.iter
            (fun gid ->
              if Hashtbl.mem t.dsa_cols gid then Hashtbl.replace used gid ())
            r.Route.edges)
        sol.Route.routes;
      let neighbours gid =
        List.filter_map
          (fun (a, bgid) ->
            if a = gid && Hashtbl.mem used bgid then Some bgid
            else if bgid = gid && Hashtbl.mem used a then Some a
            else None)
          t.dsa_pairs
      in
      let color = Hashtbl.create 16 in
      let rec assign = function
        | [] -> true
        | gid :: rest ->
          let taken =
            List.filter_map (fun nb -> Hashtbl.find_opt color nb)
              (neighbours gid)
          in
          let k_colors = Array.length (Hashtbl.find t.dsa_cols gid) in
          let rec try_j j =
            if j >= k_colors then false
            else if List.mem j taken then try_j (j + 1)
            else begin
              Hashtbl.replace color gid j;
              if assign rest then true
              else begin
                Hashtbl.remove color gid;
                try_j (j + 1)
              end
            end
          in
          try_j 0
      in
      let order = Hashtbl.fold (fun gid () acc -> gid :: acc) used [] in
      let order = List.sort Int.compare order in
      if assign order then begin
        Hashtbl.iter
          (fun gid j -> x.((Hashtbl.find t.dsa_cols gid).(j)) <- 1.0)
          color;
        true
      end
      else false
    end
  in
  if not !ok then None
  else if not (encode_dsa ()) then None
  else begin
    (* SADP indicators follow from the arc values. *)
    Hashtbl.iter
      (fun pv pairs ->
        let hot = ref false in
        List.iter
          (fun (q, a, bvar) ->
            let v = x.(a) *. x.(bvar) in
            (match q with Some qcol -> x.(qcol) <- v | None -> ());
            if v > 0.5 then hot := true)
          pairs;
        x.(pv) <- (if !hot then 1.0 else 0.0))
      t.products;
    if Lp.is_feasible t.lp x then Some x else None
  end
