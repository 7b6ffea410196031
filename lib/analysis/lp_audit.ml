module Lp = Optrouter_ilp.Lp
module Graph = Optrouter_grid.Graph
module Clip = Optrouter_grid.Clip
module Layer = Optrouter_tech.Layer
module Rules = Optrouter_tech.Rules
module Formulate = Optrouter_core.Formulate
module Report = Optrouter_report.Report

type severity = Error | Warning | Info

type diagnostic = {
  code : string;
  severity : severity;
  subject : string;
  message : string;
}

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let by_severity s ds = List.filter (fun d -> d.severity = s) ds
let error_count ds = List.length (by_severity Error ds)

let diag code severity subject fmt =
  Printf.ksprintf (fun message -> { code; severity; subject; message }) fmt

(* ------------------------------------------------------------------ *)
(* A0xx: structural well-formedness                                    *)
(* ------------------------------------------------------------------ *)

let tol = 1e-9

let is_integral_value f = Float.is_finite f && Float.equal (Float.round f) f

(* Minimum/maximum possible activity of a row under the variable bounds.
   Infinite bounds propagate through IEEE arithmetic (coefficients are
   nonzero by the Builder invariant, so no 0 * inf NaNs can appear). *)
let activity_range (lp : Lp.t) (row : Lp.row) =
  Array.fold_left
    (fun (lo, hi) (j, a) ->
      let v = lp.Lp.vars.(j) in
      if a > 0.0 then (lo +. (a *. v.Lp.lower), hi +. (a *. v.Lp.upper))
      else (lo +. (a *. v.Lp.upper), hi +. (a *. v.Lp.lower)))
    (0.0, 0.0) row.Lp.coeffs

let duplicate_names ~code ~what names =
  let seen = Hashtbl.create (Array.length names) in
  let out = ref [] in
  Array.iter
    (fun name ->
      match Hashtbl.find_opt seen name with
      | Some `Fresh ->
        Hashtbl.replace seen name `Reported;
        out := diag code Error name "duplicate %s name" what :: !out
      | Some `Reported -> ()
      | None -> Hashtbl.add seen name `Fresh)
    names;
  List.rev !out

let structure (lp : Lp.t) =
  let out = ref [] in
  let add d = out := d :: !out in
  List.iter add
    (duplicate_names ~code:"A001" ~what:"row"
       (Array.map (fun (r : Lp.row) -> r.Lp.r_name) lp.Lp.rows));
  List.iter add
    (duplicate_names ~code:"A003" ~what:"variable"
       (Array.map (fun (v : Lp.var) -> v.Lp.v_name) lp.Lp.vars));
  Array.iter
    (fun (r : Lp.row) ->
      if r.Lp.r_name = "" then add (diag "A002" Error "<row>" "empty row name"))
    lp.Lp.rows;
  Array.iter
    (fun (v : Lp.var) ->
      let name = v.Lp.v_name in
      if name = "" then add (diag "A004" Error "<var>" "empty variable name");
      if Float.is_nan v.Lp.lower || Float.is_nan v.Lp.upper
         || not (Float.is_finite v.Lp.obj)
      then
        add
          (diag "A009" Error name
             "non-finite variable data (bounds %g..%g, obj %g)" v.Lp.lower
             v.Lp.upper v.Lp.obj)
      else if v.Lp.lower > v.Lp.upper then
        add
          (diag "A008" Error name "contradictory bounds: lower %g > upper %g"
             v.Lp.lower v.Lp.upper)
      else begin
        if
          v.Lp.kind = Lp.Integer
          && ((Float.is_finite v.Lp.lower && not (is_integral_value v.Lp.lower))
             || (Float.is_finite v.Lp.upper && not (is_integral_value v.Lp.upper))
             )
        then
          add
            (diag "A006" Warning name
               "integer variable with non-integral bounds %g..%g" v.Lp.lower
               v.Lp.upper);
        if Float.equal v.Lp.lower v.Lp.upper then
          add (diag "A010" Info name "fixed variable (both bounds %g)" v.Lp.lower)
        else if v.Lp.lower = neg_infinity && v.Lp.upper = infinity then
          add (diag "A011" Warning name "free variable (no finite bound)")
      end)
    lp.Lp.vars;
  Array.iter
    (fun (r : Lp.row) ->
      let name = r.Lp.r_name in
      let bad_coeff =
        Array.exists (fun (_, a) -> not (Float.is_finite a)) r.Lp.coeffs
      in
      if bad_coeff || not (Float.is_finite r.Lp.rhs) then
        add (diag "A009" Error name "non-finite coefficient or right-hand side")
      else if Array.length r.Lp.coeffs = 0 then begin
        let sat =
          match r.Lp.sense with
          | Lp.Le -> 0.0 <= r.Lp.rhs +. tol
          | Lp.Ge -> 0.0 >= r.Lp.rhs -. tol
          | Lp.Eq -> Float.abs r.Lp.rhs <= tol
        in
        if sat then
          add
            (diag "A005" Warning name
               "empty row (all coefficients cancelled); vacuously true")
        else
          add
            (diag "A007" Error name
               "empty row is unsatisfiable: 0 %s %g never holds"
               (Format.asprintf "%a" Lp.pp_sense r.Lp.sense)
               r.Lp.rhs)
      end
      else begin
        let lo, hi = activity_range lp r in
        let infeasible =
          match r.Lp.sense with
          | Lp.Le -> lo > r.Lp.rhs +. tol
          | Lp.Ge -> hi < r.Lp.rhs -. tol
          | Lp.Eq -> lo > r.Lp.rhs +. tol || hi < r.Lp.rhs -. tol
        in
        if infeasible then
          add
            (diag "A007" Error name
               "trivially infeasible: activity range [%g, %g] cannot meet %s %g"
               lo hi
               (Format.asprintf "%a" Lp.pp_sense r.Lp.sense)
               r.Lp.rhs)
      end)
    lp.Lp.rows;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* A1xx: numerical conditioning                                        *)
(* ------------------------------------------------------------------ *)

let spread_limit = 1e8
let magnitude_hi = 1e10
let magnitude_lo = 1e-10
let rhs_limit = 1e10

let numerics (lp : Lp.t) =
  let out = ref [] in
  let add d = out := d :: !out in
  Array.iter
    (fun (r : Lp.row) ->
      let name = r.Lp.r_name in
      if Array.length r.Lp.coeffs > 0 then begin
        let amin = ref infinity and amax = ref 0.0 in
        Array.iter
          (fun (_, a) ->
            let m = Float.abs a in
            if Float.is_finite m then begin
              if m < !amin then amin := m;
              if m > !amax then amax := m
            end)
          r.Lp.coeffs;
        if !amax > 0.0 && !amax /. !amin > spread_limit then
          add
            (diag "A101" Warning name
               "coefficient magnitudes span %.1e .. %.1e (ratio %.1e)" !amin
               !amax (!amax /. !amin));
        if !amax > magnitude_hi then
          add (diag "A103" Warning name "huge coefficient magnitude %.1e" !amax);
        if !amin < magnitude_lo then
          add
            (diag "A103" Warning name "tiny nonzero coefficient magnitude %.1e"
               !amin)
      end;
      if Float.is_finite r.Lp.rhs && Float.abs r.Lp.rhs > rhs_limit then
        add (diag "A102" Warning name "huge right-hand side %.1e" r.Lp.rhs))
    lp.Lp.rows;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* A2xx: redundancy                                                    *)
(* ------------------------------------------------------------------ *)

(* Rows are compared by exact (sense, sparse pattern) identity. Builder
   rows keep indices sorted and zeros dropped, so a serialized key is a
   faithful fingerprint. *)
let row_key (r : Lp.row) =
  let buf = Buffer.create (16 * Array.length r.Lp.coeffs) in
  Buffer.add_string buf
    (match r.Lp.sense with Lp.Le -> "L" | Lp.Ge -> "G" | Lp.Eq -> "E");
  Array.iter
    (fun (j, a) -> Buffer.add_string buf (Printf.sprintf "|%d:%h" j a))
    r.Lp.coeffs;
  Buffer.contents buf

let redundancy (lp : Lp.t) =
  let out = ref [] in
  let add d = out := d :: !out in
  let seen : (string, Lp.row) Hashtbl.t = Hashtbl.create (Lp.nrows lp) in
  Array.iter
    (fun (r : Lp.row) ->
      if Array.length r.Lp.coeffs > 0 then begin
        let key = row_key r in
        match Hashtbl.find_opt seen key with
        | None -> Hashtbl.add seen key r
        | Some first ->
          if Float.equal first.Lp.rhs r.Lp.rhs then
            add
              (diag "A201" Warning r.Lp.r_name
                 "duplicate of row %s (same coefficients, sense and rhs)"
                 first.Lp.r_name)
          else begin
            match r.Lp.sense with
            | Lp.Eq ->
              add
                (diag "A203" Error r.Lp.r_name
                   "conflicts with row %s: equal coefficients but rhs %g vs %g"
                   first.Lp.r_name r.Lp.rhs first.Lp.rhs)
            | Lp.Le | Lp.Ge ->
              let weaker, stronger =
                let r_weaker =
                  match r.Lp.sense with
                  | Lp.Le -> r.Lp.rhs > first.Lp.rhs
                  | _ -> r.Lp.rhs < first.Lp.rhs
                in
                if r_weaker then (r, first) else (first, r)
              in
              add
                (diag "A202" Info weaker.Lp.r_name
                   "dominated by row %s (same coefficients, stronger rhs %g)"
                   stronger.Lp.r_name stronger.Lp.rhs);
              (* keep the stronger row as the representative *)
              Hashtbl.replace seen key stronger
          end
      end)
    lp.Lp.rows;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* A3xx: rule coverage                                                 *)
(* ------------------------------------------------------------------ *)

(* The name families the formulation may emit. A row or column whose name
   prefix (up to the first '_') is not listed here fails A303 — a new
   constraint family must be registered together with its expectation
   logic, which is the point. *)
let row_families =
  [
    "lk2"; "lk3"; "cap"; "flow"; "vx"; "vcap"; "viadj"; "v12adj"; "vslo";
    "vsup"; "vsblk"; "qa"; "qb"; "qc"; "qp"; "pl"; "pub"; "sadp"; "dsa";
  ]

let var_families = [ "e"; "f"; "u"; "p"; "q"; "c" ]

let family_of name =
  match String.index_opt name '_' with
  | Some i when i > 0 -> String.sub name 0 i
  | Some _ | None -> name

type expectation = Required | Forbidden

(* Re-derive, from the rule configuration and the raw graph structure
   only, which families the model must (and must not) contain. This
   deliberately re-walks the graph instead of asking Formulate: the whole
   point is to catch Formulate silently dropping (or leaking) a family. *)
let expected_families ~(rules : Rules.t) ~(options : Formulate.options)
    (g : Graph.t) =
  let cols = g.clip.Clip.cols
  and rows = g.clip.Clip.rows
  and nz = g.clip.Clip.layers in
  let ngrid = cols * rows * nz in
  let nnets = Array.length g.nets in
  let edge_allowed_by_any gid =
    let ok = ref false in
    for k = 0 to nnets - 1 do
      if Graph.allowed g k gid then ok := true
    done;
    !ok
  in
  let has_arc =
    let found = ref false in
    Array.iteri (fun gid _ -> if edge_allowed_by_any gid then found := true) g.edges;
    !found
  in
  (* nets with at least one allowed edge incident to a given grid vertex *)
  let nets_at v =
    let ks = ref [] in
    for k = 0 to nnets - 1 do
      if Array.exists (fun (gid, _) -> Graph.allowed g k gid) g.adj.(v) then
        ks := k :: !ks
    done;
    !ks
  in
  let vx_gate = nnets > 1 in
  let vx_witness = ref false and vcap_witness = ref false in
  if vx_gate then
    for v = 0 to ngrid - 1 do
      if not g.blocked.(v) then begin
        match nets_at v with
        | [] -> ()
        | [ _ ] -> vx_witness := true
        | _ :: _ :: _ ->
          vx_witness := true;
          vcap_witness := true
      end
    done;
  (* via adjacency: derive the canonical neighbour offsets from the rule
     alone (forward offsets; the reverse pairs are the same rows) *)
  let offsets =
    match rules.Rules.via_restriction with
    | Rules.No_blocking -> []
    | Rules.Orthogonal -> [ (1, 0); (0, 1) ]
    | Rules.Orthogonal_diagonal -> [ (1, 0); (0, 1); (1, 1); (1, -1) ]
  in
  let viadj_witness = ref false in
  if offsets <> [] then
    for z = 0 to nz - 2 do
      for y = 0 to rows - 1 do
        for x = 0 to cols - 1 do
          if g.via_site.(((z * rows) + y) * cols + x) <> None then
            List.iter
              (fun (dx, dy) ->
                let x' = x + dx and y' = y + dy in
                if
                  x' >= 0 && x' < cols && y' >= 0 && y' < rows
                  && g.via_site.(((z * rows) + y') * cols + x') <> None
                then viadj_witness := true)
              offsets
        done
      done
    done;
  let v12_witness = ref false in
  if offsets <> [] && nnets > 0 then begin
    let occupied x y = g.access_sites.((y * cols) + x) <> [] in
    for y = 0 to rows - 1 do
      for x = 0 to cols - 1 do
        if occupied x y then
          List.iter
            (fun (dx, dy) ->
              let x' = x + dx and y' = y + dy in
              if x' >= 0 && x' < cols && y' >= 0 && y' < rows && occupied x' y'
              then v12_witness := true)
            offsets
      done
    done
  end;
  (* via shapes *)
  let nreps = Array.length g.via_reps in
  let vshape_witness = nreps > 0 && nnets > 0 in
  let vsblk_witness = ref false in
  Array.iter
    (fun (rep : Graph.via_rep) ->
      let rep_edges =
        Array.to_list rep.Graph.lower_edges @ Array.to_list rep.Graph.upper_edges
      in
      let members =
        Array.to_list rep.Graph.lower_members
        @ Array.to_list rep.Graph.upper_members
      in
      for k = 0 to nnets - 1 do
        List.iter
          (fun mv ->
            Array.iter
              (fun (gid2, _) ->
                if not (List.mem gid2 rep_edges) then
                  for k' = 0 to nnets - 1 do
                    if k' <> k && Graph.allowed g k' gid2 then
                      vsblk_witness := true
                  done)
              g.adj.(mv))
          members
      done)
    g.via_reps;
  (* SADP end-of-line: eligibility of a (net, vertex, side) indicator *)
  let sadp_layer z = g.layers.(z).Layer.patterning = Layer.Sadp in
  let wire_low = Array.make (max 1 ngrid) (-1)
  and wire_high = Array.make (max 1 ngrid) (-1) in
  Array.iteri
    (fun gid (ed : Graph.edge) ->
      match ed.Graph.kind with
      | Graph.Wire _ ->
        if ed.Graph.u < ngrid then wire_high.(ed.Graph.u) <- gid;
        if ed.Graph.v < ngrid then wire_low.(ed.Graph.v) <- gid
      | Graph.Via _ | Graph.Shape_lower _ | Graph.Shape_upper _ | Graph.Access
        -> ())
    g.edges;
  let vialike_allowed v k =
    Array.exists
      (fun (gid, _) ->
        (match g.edges.(gid).Graph.kind with
        | Graph.Via _ | Graph.Shape_lower _ | Graph.Shape_upper _ | Graph.Access
          -> true
        | Graph.Wire _ -> false)
        && Graph.allowed g k gid)
      g.adj.(v)
  in
  (* side 0 = from the low-coordinate neighbour, 1 = from the high one *)
  let p_eligible k v side =
    let wire = if side = 0 then wire_low.(v) else wire_high.(v) in
    wire >= 0 && Graph.allowed g k wire && vialike_allowed v k
  in
  let p_side_hot v side =
    let hot = ref false in
    for k = 0 to nnets - 1 do
      if p_eligible k v side then hot := true
    done;
    !hot
  in
  let p_witness = ref false in
  for z = 0 to nz - 1 do
    if sadp_layer z then
      for y = 0 to rows - 1 do
        for x = 0 to cols - 1 do
          let v = ((z * rows) + y) * cols + x in
          if not g.blocked.(v) then
            if p_side_hot v 0 || p_side_hot v 1 then p_witness := true
        done
      done
  done;
  (* forbidden tip configurations: any conflict pair with live indicators
     on both sides yields a packing row *)
  let sadp_witness = ref false in
  for z = 0 to nz - 1 do
    if sadp_layer z then begin
      let horizontal = g.layers.(z).Layer.dir = Layer.Horizontal in
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
            let pair side offs other_side =
              if (not g.blocked.(v)) && p_side_hot v side then
                List.iter
                  (fun (da, dc) ->
                    match vat (a + da) (c + dc) with
                    | Some j when (not g.blocked.(j)) && p_side_hot j other_side
                      ->
                      sadp_witness := true
                    | Some _ | None -> ())
                  offs
            in
            pair 1 [ (-1, 0); (-1, -1); (-1, 1); (0, -1); (0, 1) ] 0;
            pair 1 [ (-1, 0); (-1, -1); (-1, 1); (1, -1); (1, 1) ] 1;
            pair 0 [ (1, 0); (1, -1); (1, 1); (-1, -1); (-1, 1) ] 0
        done
      done
    end
  done;
  (* DSA via coloring (RULE12+): the color family is required exactly
     when the rule is on and some unordered pair of single-via sites on
     one cut layer sits within the DSA pitch (Chebyshev) — re-derived
     from the raw via-site lattice, never from Formulate's own pair
     list. *)
  let dsa_witness = ref false in
  if rules.Rules.dsa then begin
    let pitch = g.dsa_pitch in
    for z = 0 to nz - 2 do
      for y = 0 to rows - 1 do
        for x = 0 to cols - 1 do
          if g.via_site.(((z * rows) + y) * cols + x) <> None then
            for dy = 0 to pitch do
              for dx = -pitch to pitch do
                if dy > 0 || dx > 0 then begin
                  let x' = x + dx and y' = y + dy in
                  if
                    x' >= 0 && x' < cols && y' >= 0 && y' < rows
                    && g.via_site.(((z * rows) + y') * cols + x') <> None
                  then dsa_witness := true
                end
              done
            done
        done
      done
    done
  end;
  let expect witness = if witness then Required else Forbidden in
  let aux = options.Formulate.sadp_aux_vars in
  let sadp_on = !p_witness in
  [
    ("e", expect has_arc);
    ("f", expect has_arc);
    ("lk2", expect has_arc);
    ("lk3", expect has_arc);
    ("cap", expect has_arc);
    ("flow", expect has_arc);
    ("u", expect !vx_witness);
    ("vx", expect !vx_witness);
    ("vcap", expect !vcap_witness);
    ("viadj", expect !viadj_witness);
    ("v12adj", expect !v12_witness);
    ("vslo", expect vshape_witness);
    ("vsup", expect vshape_witness);
    ("vsblk", expect !vsblk_witness);
    ("p", expect sadp_on);
    ("q", expect (sadp_on && aux));
    ("qa", expect (sadp_on && aux));
    ("qb", expect (sadp_on && aux));
    ("qc", expect (sadp_on && aux));
    ("qp", expect (sadp_on && aux));
    ("pub", expect (sadp_on && aux));
    ("pl", expect (sadp_on && not aux));
    ("sadp", expect !sadp_witness);
    ("c", expect !dsa_witness);
    ("dsa", expect !dsa_witness);
  ]

let coverage ~(rules : Rules.t) ~options (g : Graph.t) (lp : Lp.t) =
  let out = ref [] in
  let add d = out := d :: !out in
  (* the graph's layer patterning must itself agree with the rules *)
  Array.iter
    (fun (l : Layer.t) ->
      let expected = Rules.patterning_of rules ~metal:l.Layer.metal in
      if l.Layer.patterning <> expected then
        add
          (diag "A304" Error (Printf.sprintf "M%d" l.Layer.metal)
             "graph layer patterning %s contradicts %s (expects %s)"
             (Format.asprintf "%a" Layer.pp_patterning l.Layer.patterning)
             rules.Rules.name
             (Format.asprintf "%a" Layer.pp_patterning expected)))
    g.layers;
  (* A305: the objective vector must be exactly the rules' objective —
     each e-binary carries [Rules.objective_coeff] of its edge, every
     other column zero. Switching to a via objective must change the
     objective and nothing else; a weight leaking into auxiliary columns
     (or a stale wirelength coefficient surviving the switch) is caught
     here, independent of how Formulate computed it. *)
  Array.iter
    (fun (v : Lp.var) ->
      let name = v.Lp.v_name in
      (* e-binaries are named [e_n<k>_g<gid>_d<dir>]. Not Scanf: its %d
         accepts '_' as a digit separator and eats the field breaks. *)
      let parsed =
        match String.split_on_char '_' name with
        | [ "e"; _; gtok; _ ] when String.length gtok > 1 && gtok.[0] = 'g' ->
          int_of_string_opt (String.sub gtok 1 (String.length gtok - 1))
        | _ -> None
      in
      let expected =
        match parsed with
        | Some gid when gid >= 0 && gid < Array.length g.edges ->
          let ed = g.edges.(gid) in
          let via =
            match ed.Graph.kind with
            | Graph.Via _ | Graph.Shape_lower _ -> true
            | Graph.Wire _ | Graph.Shape_upper _ | Graph.Access -> false
          in
          Rules.objective_coeff rules.Rules.objective ~via ~cost:ed.Graph.cost
        | Some _ | None -> 0.0
      in
      if not (Float.equal v.Lp.obj expected) then
        add
          (diag "A305" Error name
             "objective coefficient %g contradicts the %s objective \
              (expects %g)"
             v.Lp.obj
             (Rules.objective_name rules.Rules.objective)
             expected))
    lp.Lp.vars;
  let present = Hashtbl.create 32 in
  let note_presence ~what known name =
    let fam = family_of name in
    if List.mem fam known then begin
      if not (Hashtbl.mem present fam) then Hashtbl.add present fam ()
    end
    else
      add
        (diag "A303" Error name "unrecognized %s name family %S" what fam)
  in
  Array.iter
    (fun (r : Lp.row) -> note_presence ~what:"row" row_families r.Lp.r_name)
    lp.Lp.rows;
  Array.iter
    (fun (v : Lp.var) ->
      note_presence ~what:"variable" var_families v.Lp.v_name)
    lp.Lp.vars;
  let is_var f = List.mem f var_families in
  List.iter
    (fun (fam, expectation) ->
      let what = if is_var fam then "variable" else "constraint" in
      match (expectation, Hashtbl.mem present fam) with
      | Required, false ->
        add
          (diag "A301" Error fam
             "%s family %S required by %s is missing from the model" what fam
             rules.Rules.name)
      | Forbidden, true ->
        add
          (diag "A302" Error fam
             "%s family %S is present but not implied by %s with these options"
             what fam rules.Rules.name)
      | Required, true | Forbidden, false -> ())
    (expected_families ~rules ~options g);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let audit_lp lp = structure lp @ numerics lp @ redundancy lp

let audit ~rules form =
  let lp = Formulate.lp form in
  audit_lp lp
  @ coverage ~rules ~options:(Formulate.options form) (Formulate.graph form) lp

let render ds =
  let buf = Buffer.create 256 in
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "%s %-7s %s: %s\n" d.code (severity_name d.severity)
           d.subject d.message))
    ds;
  Buffer.contents buf

let to_json ?(meta = []) ds =
  let count s = List.length (by_severity s ds) in
  Report.Json.Obj
    (meta
    @ [
        ("errors", Report.Json.Int (count Error));
        ("warnings", Report.Json.Int (count Warning));
        ("infos", Report.Json.Int (count Info));
        ( "diagnostics",
          Report.Json.List
            (List.map
               (fun d ->
                 Report.Json.Obj
                   [
                     ("code", Report.Json.String d.code);
                     ("severity", Report.Json.String (severity_name d.severity));
                     ("subject", Report.Json.String d.subject);
                     ("message", Report.Json.String d.message);
                   ])
               ds) );
      ])

exception Audit_failure of diagnostic list

let () =
  Printexc.register_printer (function
    | Audit_failure ds ->
      Some
        (Printf.sprintf "Lp_audit.Audit_failure with %d error(s):\n%s"
           (error_count ds) (render (by_severity Error ds)))
    | _ -> None)

let hook ?(strict = true) () ~rules form =
  let ds = audit ~rules form in
  List.iter
    (fun d ->
      let level =
        match d.severity with
        | Error -> Report.Log.Error
        | Warning -> Report.Log.Warn
        | Info -> Report.Log.Info
      in
      Report.Log.event level ~src:"audit" (fun () ->
          Printf.sprintf "%s %s: %s" d.code d.subject d.message))
    ds;
  if strict && error_count ds > 0 then raise (Audit_failure ds)
