(* Tests for the static-analysis subsystem: the model auditor (Lp_audit)
   and the source lint (Source_lint). *)

module Lp = Optrouter_ilp.Lp
module Clip = Optrouter_grid.Clip
module Graph = Optrouter_grid.Graph
module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Formulate = Optrouter_core.Formulate
module Optrouter = Optrouter_core.Optrouter
module Report = Optrouter_report.Report
module Lp_audit = Optrouter_analysis.Lp_audit
module Source_lint = Optrouter_analysis.Source_lint

let tech = Tech.n28_12t
let rule = Rules.rule

let pin name access = { Clip.p_name = name; access; shape = None }
let net name pins = { Clip.n_name = name; pins }

let two_pin name (x1, y1) (x2, y2) =
  net name [ pin (name ^ ".s") [ (x1, y1) ]; pin (name ^ ".t") [ (x2, y2) ] ]

let codes ds = List.sort_uniq compare (List.map (fun d -> d.Lp_audit.code) ds)

let has_code c ds = List.mem c (codes ds)

let check_code ?(expect = true) c ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s %s" c (if expect then "present" else "absent"))
    expect (has_code c ds)

(* ------------------------------------------------------------------ *)
(* Structure (A0xx)                                                    *)
(* ------------------------------------------------------------------ *)

let test_structure_clean () =
  let b = Lp.Builder.create () in
  let x = Lp.Builder.add_binary b ~name:"x_1" ~obj:1.0 in
  let y = Lp.Builder.add_binary b ~name:"y_1" ~obj:1.0 in
  Lp.Builder.add_row b ~name:"r_1" [ (x, 1.0); (y, 1.0) ] Lp.Ge 1.0;
  let ds = Lp_audit.audit_lp (Lp.Builder.finish b) in
  Alcotest.(check (list string)) "no diagnostics" [] (codes ds)

let test_structure_duplicate_names () =
  let b = Lp.Builder.create () in
  let x = Lp.Builder.add_binary b ~name:"x_1" ~obj:1.0 in
  let _ = Lp.Builder.add_binary b ~name:"x_1" ~obj:1.0 in
  Lp.Builder.add_row b ~name:"r_1" [ (x, 1.0) ] Lp.Le 1.0;
  Lp.Builder.add_row b ~name:"r_1" [ (x, -1.0) ] Lp.Le 0.0;
  let ds = Lp_audit.structure (Lp.Builder.finish b) in
  check_code "A001" ds;
  check_code "A003" ds

let test_structure_empty_and_infeasible_rows () =
  let b = Lp.Builder.create () in
  let x = Lp.Builder.add_binary b ~name:"x_1" ~obj:1.0 in
  let y = Lp.Builder.add_binary b ~name:"y_1" ~obj:0.0 in
  (* coefficients sum to zero: vacuously true empty row *)
  Lp.Builder.add_row b ~name:"vac_1" [ (x, 1.0); (x, -1.0) ] Lp.Le 1.0;
  (* coefficients sum to zero but 0 <= -1 never holds *)
  Lp.Builder.add_row b ~name:"gone_1" [ (x, 2.0); (x, -2.0) ] Lp.Le (-1.0);
  (* binary activity range is [0, 2]: can never reach 3 *)
  Lp.Builder.add_row b ~name:"high_1" [ (x, 1.0); (y, 1.0) ] Lp.Ge 3.0;
  let ds = Lp_audit.structure (Lp.Builder.finish b) in
  check_code "A005" ds;
  check_code "A007" ds;
  let infeasible =
    List.filter (fun d -> d.Lp_audit.code = "A007") ds
    |> List.map (fun d -> d.Lp_audit.subject)
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "both impossible rows flagged" [ "gone_1"; "high_1" ] infeasible

let test_structure_variable_kinds () =
  let b = Lp.Builder.create () in
  let _ =
    Lp.Builder.add_var b ~name:"i_1" ~lower:0.5 ~upper:2.5 ~obj:0.0 Lp.Integer
  in
  let _ =
    Lp.Builder.add_var b ~name:"fix_1" ~lower:3.0 ~upper:3.0 ~obj:0.0
      Lp.Continuous
  in
  let _ =
    Lp.Builder.add_var b ~name:"free_1" ~lower:neg_infinity ~upper:infinity
      ~obj:0.0 Lp.Continuous
  in
  (* NaN bounds sneak past the Builder's lower > upper test: every
     comparison with NaN is false. The auditor must catch them. *)
  let _ =
    Lp.Builder.add_var b ~name:"nan_1" ~lower:Float.nan ~upper:1.0 ~obj:0.0
      Lp.Continuous
  in
  let ds = Lp_audit.structure (Lp.Builder.finish b) in
  check_code "A006" ds;
  check_code "A010" ds;
  check_code "A011" ds;
  check_code "A009" ds

(* ------------------------------------------------------------------ *)
(* Numerics (A1xx)                                                     *)
(* ------------------------------------------------------------------ *)

let test_numerics () =
  let b = Lp.Builder.create () in
  let x =
    Lp.Builder.add_var b ~name:"x_1" ~lower:0.0 ~upper:1.0 ~obj:1.0
      Lp.Continuous
  in
  let y =
    Lp.Builder.add_var b ~name:"y_1" ~lower:0.0 ~upper:1.0 ~obj:1.0
      Lp.Continuous
  in
  Lp.Builder.add_row b ~name:"spread_1" [ (x, 1e-5); (y, 1e5) ] Lp.Le 1.0;
  Lp.Builder.add_row b ~name:"huge_1" [ (x, 1e11) ] Lp.Le 1e11;
  Lp.Builder.add_row b ~name:"tiny_1" [ (x, 1e-11) ] Lp.Le 1.0;
  let ds = Lp_audit.numerics (Lp.Builder.finish b) in
  check_code "A101" ds;
  check_code "A102" ds;
  check_code "A103" ds;
  (* a clean row produces nothing *)
  let b2 = Lp.Builder.create () in
  let x2 = Lp.Builder.add_binary b2 ~name:"x_1" ~obj:1.0 in
  Lp.Builder.add_row b2 ~name:"ok_1" [ (x2, 4.0) ] Lp.Le 4.0;
  Alcotest.(check (list string))
    "clean" []
    (codes (Lp_audit.numerics (Lp.Builder.finish b2)))

(* ------------------------------------------------------------------ *)
(* Redundancy (A2xx)                                                   *)
(* ------------------------------------------------------------------ *)

let test_redundancy () =
  let b = Lp.Builder.create () in
  let x = Lp.Builder.add_binary b ~name:"x_1" ~obj:1.0 in
  let y = Lp.Builder.add_binary b ~name:"y_1" ~obj:1.0 in
  Lp.Builder.add_row b ~name:"a_1" [ (x, 1.0); (y, 1.0) ] Lp.Le 1.0;
  Lp.Builder.add_row b ~name:"a_2" [ (x, 1.0); (y, 1.0) ] Lp.Le 1.0;
  Lp.Builder.add_row b ~name:"a_3" [ (x, 1.0); (y, 1.0) ] Lp.Le 2.0;
  Lp.Builder.add_row b ~name:"e_1" [ (x, 1.0) ] Lp.Eq 1.0;
  Lp.Builder.add_row b ~name:"e_2" [ (x, 1.0) ] Lp.Eq 0.0;
  let ds = Lp_audit.redundancy (Lp.Builder.finish b) in
  check_code "A201" ds;
  check_code "A202" ds;
  check_code "A203" ds;
  let dominated = List.find (fun d -> d.Lp_audit.code = "A202") ds in
  Alcotest.(check string)
    "the weaker row is the dominated one" "a_3" dominated.Lp_audit.subject

(* ------------------------------------------------------------------ *)
(* Coverage (A3xx)                                                     *)
(* ------------------------------------------------------------------ *)

let build_form rules_ clip =
  let g = Graph.build ~tech ~rules:rules_ clip in
  (g, Formulate.build ~rules:rules_ g)

let test_clip =
  Clip.make ~cols:4 ~rows:4 ~layers:2
    [ two_pin "a" (0, 0) (3, 3); two_pin "b" (0, 3) (3, 0) ]

(* Rebuild the formulation's problem through the Builder, dropping every
   row whose name-family is in [drop] and adding [extra] rows. *)
let doctor ?(drop = []) ?(extra = []) (lp : Lp.t) =
  let family name =
    match String.index_opt name '_' with
    | Some i when i > 0 -> String.sub name 0 i
    | Some _ | None -> name
  in
  let b = Lp.Builder.create () in
  Array.iter
    (fun (v : Lp.var) ->
      ignore
        (Lp.Builder.add_var b ~name:v.Lp.v_name ~lower:v.Lp.lower
           ~upper:v.Lp.upper ~obj:v.Lp.obj v.Lp.kind))
    lp.Lp.vars;
  Array.iter
    (fun (r : Lp.row) ->
      if not (List.mem (family r.Lp.r_name) drop) then
        Lp.Builder.add_row b ~name:r.Lp.r_name
          (Array.to_list r.Lp.coeffs)
          r.Lp.sense r.Lp.rhs)
    lp.Lp.rows;
  List.iter
    (fun (name, coeffs, sense, rhs) ->
      Lp.Builder.add_row b ~name coeffs sense rhs)
    extra;
  Lp.Builder.finish b

let coverage_of rules_ g form lp =
  Lp_audit.coverage ~rules:rules_ ~options:(Formulate.options form) g lp

let test_coverage_clean () =
  List.iter
    (fun n ->
      let r = rule n in
      let g, form = build_form r test_clip in
      let ds = coverage_of r g form (Formulate.lp form) in
      Alcotest.(check (list string))
        (Printf.sprintf "%s clean" r.Rules.name)
        [] (codes ds))
    [ 1; 2; 3; 6; 9 ]

(* The acceptance test of the coverage layer: artificially suppressing a
   constraint family that the rules demand must be reported as A301 —
   even though the doctored problem is still a perfectly well-formed LP. *)
let test_coverage_suppressed_family () =
  (* RULE2: SADP from M2, so the EOL packing rows must exist *)
  let g, form = build_form (rule 2) test_clip in
  let lp = Formulate.lp form in
  let families =
    Array.to_list lp.Lp.rows
    |> List.map (fun (r : Lp.row) -> r.Lp.r_name)
    |> List.filter (fun n -> String.length n > 4 && String.sub n 0 5 = "sadp_")
  in
  Alcotest.(check bool)
    "precondition: the honest model has sadp rows" true (families <> []);
  let doctored = doctor ~drop:[ "sadp" ] lp in
  let ds = coverage_of (rule 2) g form doctored in
  check_code "A301" ds;
  let missing = List.find (fun d -> d.Lp_audit.code = "A301") ds in
  Alcotest.(check string) "the sadp family" "sadp" missing.Lp_audit.subject;
  (* same game with the via-adjacency rows of RULE6 *)
  let g6, form6 = build_form (rule 6) test_clip in
  let ds6 =
    coverage_of (rule 6) g6 form6 (doctor ~drop:[ "viadj" ] (Formulate.lp form6))
  in
  check_code "A301" ds6

let test_coverage_forbidden_and_unknown () =
  (* RULE1 has no SADP anywhere: a sadp row is a leak, not coverage *)
  let g, form = build_form (rule 1) test_clip in
  let lp = Formulate.lp form in
  let with_leak =
    doctor ~extra:[ ("sadp_leak", [ (0, 1.0) ], Lp.Le, 1.0) ] lp
  in
  check_code "A302" (coverage_of (rule 1) g form with_leak);
  let with_unknown =
    doctor ~extra:[ ("zzz_1", [ (0, 1.0) ], Lp.Le, 1.0) ] lp
  in
  check_code "A303" (coverage_of (rule 1) g form with_unknown)

(* The DSA family obeys the same toggling contract as every other rule
   knob: suppressing the coloring rows under RULE12 is an A301, leaking
   them under a non-DSA rule is an A302. The expected set is re-derived
   from the raw via-site lattice, never from Formulate's own pair list. *)
let test_coverage_dsa_family () =
  let g, form = build_form (rule 12) test_clip in
  let lp = Formulate.lp form in
  let dsa_rows =
    Array.to_list lp.Lp.rows
    |> List.filter (fun (r : Lp.row) ->
           String.length r.Lp.r_name > 4 && String.sub r.Lp.r_name 0 4 = "dsa_")
  in
  Alcotest.(check bool)
    "precondition: the honest RULE12 model has dsa rows" true (dsa_rows <> []);
  Alcotest.(check (list string))
    "honest RULE12 model is clean" []
    (codes (coverage_of (rule 12) g form lp));
  let ds = coverage_of (rule 12) g form (doctor ~drop:[ "dsa" ] lp) in
  check_code "A301" ds;
  let missing =
    List.filter (fun d -> d.Lp_audit.code = "A301") ds
    |> List.map (fun d -> d.Lp_audit.subject)
  in
  Alcotest.(check (list string))
    "exactly the dsa row family is reported missing" [ "dsa" ] missing;
  (* leak direction: a dsa row under plain RULE1 is forbidden *)
  let g1, form1 = build_form (rule 1) test_clip in
  let with_leak =
    doctor
      ~extra:[ ("dsa_col_g0", [ (0, 1.0) ], Lp.Eq, 0.0) ]
      (Formulate.lp form1)
  in
  check_code "A302" (coverage_of (rule 1) g1 form1 with_leak)

(* A305: the objective vector must match the rules' objective exactly.
   An honest via-count formulation is clean; a wirelength-objective LP
   audited against via-count rules (the "silent drop" of the objective
   dimension) is an A305 error. *)
let test_coverage_objective_vector () =
  let via_rules = Rules.with_objective Rules.Via_count (rule 1) in
  let gv, formv = build_form via_rules test_clip in
  Alcotest.(check (list string))
    "honest via-count model is clean" []
    (codes (coverage_of via_rules gv formv (Formulate.lp formv)));
  let gw, formw = build_form (rule 1) test_clip in
  let ds = coverage_of via_rules gw formw (Formulate.lp formw) in
  check_code "A305" ds;
  Alcotest.(check bool)
    "A305 diagnostics are errors" true
    (List.for_all
       (fun d -> d.Lp_audit.severity = Lp_audit.Error)
       (List.filter (fun d -> d.Lp_audit.code = "A305") ds));
  (* the weight itself is pinned, not just the via/wire split *)
  let w2 = Rules.with_objective (Rules.Via_weighted 2.0) (rule 1) in
  let w3 = Rules.with_objective (Rules.Via_weighted 3.0) (rule 1) in
  let g2, form2 = build_form w2 test_clip in
  Alcotest.(check (list string))
    "honest via-weighted model is clean" []
    (codes (coverage_of w2 g2 form2 (Formulate.lp form2)));
  check_code "A305" (coverage_of w3 g2 form2 (Formulate.lp form2))

let test_audit_formulations_all_rules () =
  (* every applicable rule on every tech, on a nontrivial clip: the full
     audit must be error-free (mirrors `optrouter audit` in CI) *)
  List.iter
    (fun t ->
      List.iter
        (fun (r : Rules.t) ->
          if Rules.applicable ~tech_name:t.Tech.name r then begin
            let g = Graph.build ~tech:t ~rules:r test_clip in
            let form = Formulate.build ~rules:r g in
            let ds = Lp_audit.audit ~rules:r form in
            Alcotest.(check int)
              (Printf.sprintf "%s/%s error-free" t.Tech.name r.Rules.name)
              0
              (Lp_audit.error_count ds)
          end)
        Rules.all)
    Tech.all

let test_hook () =
  let _, form = build_form (rule 2) test_clip in
  (* clean model: the strict hook must not raise *)
  Lp_audit.hook () ~rules:(rule 2) form;
  (* and it must be pluggable into the router config *)
  let config =
    Optrouter.make_config
      ~milp:(Optrouter_ilp.Milp.make_params ~time_limit_s:10.0 ())
      ~audit:(Lp_audit.hook ()) ()
  in
  let result = Optrouter.route ~config ~tech ~rules:(rule 1) test_clip in
  Alcotest.(check bool)
    "routed with auditing on" true
    (match result.Optrouter.verdict with
    | Optrouter.Routed _ -> true
    | Optrouter.Unroutable | Optrouter.Limit _ | Optrouter.Near_optimal _ ->
      false)

let test_render_and_json () =
  let ds =
    [
      {
        Lp_audit.code = "A001";
        severity = Lp_audit.Error;
        subject = "r_1";
        message = "duplicate row name";
      };
    ]
  in
  let contains ~affix s =
    let n = String.length affix and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
    go 0
  in
  let text = Lp_audit.render ds in
  Alcotest.(check bool) "text mentions code" true (contains ~affix:"A001" text);
  let json = Report.Json.to_string (Lp_audit.to_json ds) in
  List.iter
    (fun affix ->
      Alcotest.(check bool)
        (Printf.sprintf "json mentions %s" affix)
        true (contains ~affix json))
    [ {|"errors": 1|}; {|"code": "A001"|}; {|"severity": "error"|} ]

(* ------------------------------------------------------------------ *)
(* Report.Json float round-trip                                        *)
(* ------------------------------------------------------------------ *)

(* Every float the reports emit must read back bit-identical, and its
   token must still look like a float to a JSON reader, not an integer
   (hence the forced [.0] suffix on integral values). Bit equality
   distinguishes -0.0 from 0.0, which [Float.equal] would conflate. *)
let qcheck_json_float_roundtrip =
  let gen =
    (* [ldexp m e] sweeps ~18 decimal orders of magnitude in both signs
       without ever generating nan/inf *)
    QCheck.Gen.(
      map2
        (fun m e -> ldexp (float_of_int m) e)
        (int_range (-1_000_000_000) 1_000_000_000)
        (int_range (-60) 60))
  in
  QCheck.Test.make ~count:500 ~name:"Json float emit/parse is the identity"
    (QCheck.make ~print:string_of_float gen) (fun f ->
      let token = String.trim (Report.Json.to_string (Report.Json.Float f)) in
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') token
      && Int64.equal (Int64.bits_of_float f)
           (Int64.bits_of_float (float_of_string token)))

let test_json_rejects_non_finite () =
  List.iter
    (fun f ->
      match Report.Json.to_string (Report.Json.Float f) with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.failf "non-finite %h must not emit (got %S)" f s)
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* nested occurrences are rejected too, not just top-level scalars *)
  match
    Report.Json.to_string
      (Report.Json.Obj
         [ ("xs", Report.Json.List [ Report.Json.Float Float.nan ]) ])
  with
  | exception Invalid_argument _ -> ()
  | s -> Alcotest.failf "nested nan must not emit (got %S)" s

(* ------------------------------------------------------------------ *)
(* Source lint                                                         *)
(* ------------------------------------------------------------------ *)

let lint_codes src =
  List.sort_uniq compare
    (List.map
       (fun f -> f.Source_lint.code)
       (Source_lint.lint_string ~filename:"test.ml" src))

let test_lint_conversions () =
  Alcotest.(check (list string))
    "int_of_float" [ "L001" ]
    (lint_codes "let f x = int_of_float x");
  Alcotest.(check (list string))
    "Float.to_int" [ "L001" ]
    (lint_codes "let f x = Float.to_int (x *. 2.0)");
  Alcotest.(check (list string))
    "Round is clean" []
    (lint_codes "let f x = Optrouter_geom.Round.floor x")

let test_lint_float_equality () =
  Alcotest.(check (list string))
    "nonzero literal" [ "L002" ]
    (lint_codes "let f x = x = 1.5");
  Alcotest.(check (list string))
    "either side, <> too" [ "L002" ]
    (lint_codes "let f x = 2.0 <> x");
  Alcotest.(check (list string))
    "zero literal is the sanctioned sparse-drop idiom" []
    (lint_codes "let f x = x = 0.0");
  Alcotest.(check (list string))
    "int literals are fine" []
    (lint_codes "let f x = x = 1")

let test_lint_catch_all () =
  Alcotest.(check (list string))
    "with _" [ "L003" ]
    (lint_codes "let f g = try g () with _ -> ()");
  Alcotest.(check (list string))
    "exception _ case" [ "L003" ]
    (lint_codes "let f g x = match g x with v -> v | exception _ -> 0");
  Alcotest.(check (list string))
    "named binder is deliberate" []
    (lint_codes "let f g = try g () with _exn -> ()");
  Alcotest.(check (list string))
    "specific exception is fine" []
    (lint_codes "let f g = try g () with Not_found -> ()")

let test_lint_toplevel_state () =
  Alcotest.(check (list string))
    "toplevel ref" [ "L004" ]
    (lint_codes "let count = ref 0");
  Alcotest.(check (list string))
    "toplevel table" [ "L004" ]
    (lint_codes "let t = Hashtbl.create 16");
  Alcotest.(check (list string))
    "nested module too" [ "L004" ]
    (lint_codes "module M = struct let b = Buffer.create 7 end");
  Alcotest.(check (list string))
    "Atomic.make is the sanctioned primitive" []
    (lint_codes "let count = Atomic.make 0");
  Alcotest.(check (list string))
    "local mutable state is fine" []
    (lint_codes "let f () = let c = ref 0 in incr c; !c")

let test_lint_determinism () =
  Alcotest.(check (list string))
    "Hashtbl.hash" [ "L005" ]
    (lint_codes "let f x = Hashtbl.hash x");
  Alcotest.(check (list string))
    "Random.self_init" [ "L005" ]
    (lint_codes "let f () = Random.self_init ()");
  Alcotest.(check (list string))
    "fixed seed is deterministic" []
    (lint_codes "let f () = Random.init 42");
  Alcotest.(check (list string))
    "Hashtbl.create is not Hashtbl.hash" []
    (lint_codes "let f () = let t = Hashtbl.create 4 in Hashtbl.length t")

let test_lint_parse_failure () =
  Alcotest.(check (list string))
    "unparseable source reports L000" [ "L000" ]
    (lint_codes "let = =")

let test_lint_fixture () =
  (* the known-bad fixture must trip every lint, at its annotated lines;
     [dune runtest] runs from test/, [dune exec] from the project root *)
  let fixture =
    List.find Sys.file_exists
      [ "fixtures/bad_lint.ml"; "test/fixtures/bad_lint.ml" ]
  in
  let fs = Source_lint.lint_file fixture in
  let hits code =
    List.filter (fun f -> f.Source_lint.code = code) fs
    |> List.map (fun f -> f.Source_lint.line)
  in
  Alcotest.(check (list int)) "L001 lines" [ 13; 16 ] (hits "L001");
  Alcotest.(check (list int)) "L002 lines" [ 19; 22 ] (hits "L002");
  Alcotest.(check (list int)) "L003 lines" [ 29; 32 ] (hits "L003");
  Alcotest.(check (list int)) "L004 lines" [ 7; 10 ] (hits "L004");
  Alcotest.(check (list int)) "L005 lines" [ 44; 47 ] (hits "L005")

let test_ml_files_under () =
  let root = Filename.temp_file "lintwalk" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  let mk dir name =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc "let x = 1\n";
    close_out oc;
    path
  in
  let kept = mk root "keep.ml" in
  let _skipped_build = mk (Filename.concat root "_build") "gen.ml" in
  let _skipped_opam = mk (Filename.concat root "_opam") "pkg.ml" in
  let _skipped_dot = mk (Filename.concat root ".git") "hook.ml" in
  let _not_ml = mk root "notes.mli" in
  Alcotest.(check (list string))
    "only the real source file survives the walk" [ kept ]
    (Source_lint.ml_files_under [ root ]);
  (* explicitly named paths are always entered, even under a skip dir *)
  Alcotest.(check (list string))
    "explicit path wins over skip rules"
    [ Filename.concat (Filename.concat root "_build") "gen.ml" ]
    (Source_lint.ml_files_under [ Filename.concat root "_build" ])

(* ------------------------------------------------------------------ *)
(* Par lint                                                            *)
(* ------------------------------------------------------------------ *)

module Par_lint = Optrouter_analysis.Par_lint

let par_codes src =
  List.sort_uniq compare
    (List.map
       (fun f -> f.Par_lint.code)
       (Par_lint.lint_string ~filename:"test.ml" src))

let test_par_unguarded_mutation () =
  Alcotest.(check (list string))
    "incr in a spawned closure, read outside" [ "P001" ]
    (par_codes
       {|let c = ref 0
         let f () =
           let d = Domain.spawn (fun () -> incr c) in
           Domain.join d; !c|});
  Alcotest.(check (list string))
    "mutation under the lock is clean" []
    (par_codes
       {|let c = ref 0
         let m = Mutex.create ()
         let f () =
           let d =
             Domain.spawn (fun () ->
                 Mutex.lock m; incr c; Mutex.unlock m)
           in
           Domain.join d;
           Mutex.lock m; let v = !c in Mutex.unlock m; v|});
  Alcotest.(check (list string))
    "Mutex.protect body is guarded" []
    (par_codes
       {|let c = ref 0
         let m = Mutex.create ()
         let f () =
           let d =
             Domain.spawn (fun () -> Mutex.protect m (fun () -> incr c))
           in
           Domain.join d;
           Mutex.protect m (fun () -> !c)|});
  Alcotest.(check (list string))
    "single-owner driver mutation is not flagged" []
    (par_codes
       {|let f () =
           let c = ref 0 in
           incr c;
           let d = Domain.spawn (fun () -> ()) in
           Domain.join d; !c|})

let test_par_captured_mutation () =
  Alcotest.(check (list string))
    "captured table mutated in Pool.map closure" [ "P002" ]
    (par_codes
       {|let f pool keys =
           let t = Hashtbl.create 8 in
           Pool.map pool (fun k -> Hashtbl.replace t k ()) keys|});
  Alcotest.(check (list string))
    "atomics are the sanctioned primitive" []
    (par_codes
       {|let n = Atomic.make 0
         let f () =
           let d = Domain.spawn (fun () -> Atomic.incr n) in
           Domain.join d; Atomic.get n|})

let test_par_atomic_window () =
  Alcotest.(check (list string))
    "get -> test -> set window" [ "P003" ]
    (par_codes
       {|let a = Atomic.make 0
         let f () = if Atomic.get a = 0 then Atomic.set a 1|});
  Alcotest.(check (list string))
    "compare_and_set in the same conditional exempts" []
    (par_codes
       {|let a = Atomic.make 0
         let f () =
           if Atomic.get a = 0 then ignore (Atomic.compare_and_set a 0 1)|})

let test_par_wait_loop () =
  Alcotest.(check (list string))
    "wait outside any loop" [ "P004" ]
    (par_codes
       {|let f m c p =
           Mutex.lock m;
           (if not (p ()) then Condition.wait c m);
           Mutex.unlock m|});
  Alcotest.(check (list string))
    "while loop re-tests the predicate" []
    (par_codes
       {|let f m c p =
           Mutex.lock m;
           while not (p ()) do Condition.wait c m done;
           Mutex.unlock m|});
  Alcotest.(check (list string))
    "let rec wait loop is the codebase idiom" []
    (par_codes
       {|let f m c p =
           Mutex.lock m;
           let rec wait () = if not (p ()) then begin Condition.wait c m; wait () end in
           wait ();
           Mutex.unlock m|})

let test_par_blocking_under_lock () =
  Alcotest.(check (list string))
    "channel read while holding a mutex" [ "P005" ]
    (par_codes
       {|let f m ic =
           Mutex.lock m;
           let l = input_line ic in
           Mutex.unlock m; l|});
  Alcotest.(check (list string))
    "Condition.wait releases the mutex: exempt" []
    (par_codes
       {|let f m c p =
           Mutex.lock m;
           while not (p ()) do Condition.wait c m done;
           Mutex.unlock m|})

let test_par_mixed_discipline () =
  Alcotest.(check (list string))
    "parallel read without the lock writers hold" [ "P006" ]
    (par_codes
       {|type s = { lock : Mutex.t; mutable n : int }
         let f jobs =
           let s = { lock = Mutex.create (); n = 0 } in
           let ds =
             List.map
               (fun _ ->
                 Domain.spawn (fun () ->
                     Mutex.lock s.lock;
                     s.n <- s.n + 1;
                     Mutex.unlock s.lock))
               jobs
           in
           let w = Domain.spawn (fun () -> s.n) in
           ignore (Domain.join w);
           List.iter Domain.join ds|})

let test_par_inlined_lock_inheritance () =
  (* a same-file helper called only under the lock inherits protection
     through call-site inlining *)
  Alcotest.(check (list string))
    "helper called under the lock is guarded" []
    (par_codes
       {|let c = ref 0
         let m = Mutex.create ()
         let bump () = incr c
         let f () =
           let d =
             Domain.spawn (fun () ->
                 Mutex.lock m; bump (); Mutex.unlock m)
           in
           Domain.join d;
           Mutex.protect m (fun () -> !c)|})

let test_par_labelled_callback_not_parallel () =
  (* only positional Func arguments to parallel entry points run in
     another domain; labelled callbacks like ~on_done stay synchronous *)
  Alcotest.(check (list string))
    "labelled on_done is synchronous" []
    (par_codes
       {|let f run x =
           let c = ref 0 in
           run ~on_done:(fun () -> incr c) x;
           !c|})

let test_par_parse_failure () =
  Alcotest.(check (list string))
    "unparseable source reports P000" [ "P000" ]
    (par_codes "let = =")

let test_par_inventory () =
  let inv =
    Par_lint.inventory ~filename:"test.ml"
      {|let a = ref 0
let t = Hashtbl.create 16
let n = Atomic.make 0|}
  in
  Alcotest.(check (list string))
    "kinds inventoried"
    [ "Atomic.make"; "Hashtbl.create"; "ref" ]
    (List.sort_uniq compare (List.map (fun (_, _, k) -> k) inv));
  Alcotest.(check (list string))
    "names inventoried" [ "a"; "n"; "t" ]
    (List.sort_uniq compare (List.map (fun (_, n, _) -> n) inv))

let test_par_json () =
  let findings =
    Par_lint.lint_string ~filename:"test.ml"
      {|let c = ref 0
        let f () =
          let d = Domain.spawn (fun () -> incr c) in
          Domain.join d; !c|}
  in
  let json = Par_lint.to_json findings in
  let contains ~affix s =
    let n = String.length affix and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
    go 0
  in
  List.iter
    (fun affix ->
      Alcotest.(check bool)
        (Printf.sprintf "json mentions %s" affix)
        true (contains ~affix json))
    [ {|"findings": 1|}; {|"code": "P001"|}; {|"file": "test.ml"|} ]

let test_par_fixture () =
  let fixture =
    List.find Sys.file_exists
      [ "fixtures/bad_par.ml"; "test/fixtures/bad_par.ml" ]
  in
  let fs = Par_lint.lint_file fixture in
  let hits code =
    List.filter (fun f -> f.Par_lint.code = code) fs
    |> List.map (fun f -> f.Par_lint.line)
  in
  Alcotest.(check (list int)) "P001 lines" [ 15 ] (hits "P001");
  Alcotest.(check (list int)) "P002 lines" [ 22 ] (hits "P002");
  Alcotest.(check (list int)) "P003 lines" [ 27 ] (hits "P003");
  Alcotest.(check (list int)) "P004 lines" [ 31 ] (hits "P004");
  Alcotest.(check (list int)) "P005 lines" [ 38 ] (hits "P005");
  Alcotest.(check (list int)) "P006 lines" [ 56 ] (hits "P006")

let () =
  Alcotest.run "analysis"
    [
      ( "lp_audit-structure",
        [
          Alcotest.test_case "clean model" `Quick test_structure_clean;
          Alcotest.test_case "duplicate names" `Quick
            test_structure_duplicate_names;
          Alcotest.test_case "empty and infeasible rows" `Quick
            test_structure_empty_and_infeasible_rows;
          Alcotest.test_case "variable kinds" `Quick
            test_structure_variable_kinds;
        ] );
      ( "lp_audit-numerics",
        [ Alcotest.test_case "conditioning" `Quick test_numerics ] );
      ( "lp_audit-redundancy",
        [ Alcotest.test_case "duplicate/dominated/conflicting" `Quick
            test_redundancy ] );
      ( "lp_audit-coverage",
        [
          Alcotest.test_case "honest formulations are clean" `Quick
            test_coverage_clean;
          Alcotest.test_case "suppressed family is caught" `Quick
            test_coverage_suppressed_family;
          Alcotest.test_case "leaked and unknown families" `Quick
            test_coverage_forbidden_and_unknown;
          Alcotest.test_case "dsa family toggling (A301/A302)" `Quick
            test_coverage_dsa_family;
          Alcotest.test_case "objective vector pinned (A305)" `Quick
            test_coverage_objective_vector;
          Alcotest.test_case "all rules x all techs error-free" `Slow
            test_audit_formulations_all_rules;
        ] );
      ( "lp_audit-integration",
        [
          Alcotest.test_case "hook and router config" `Slow test_hook;
          Alcotest.test_case "render and json" `Quick test_render_and_json;
        ] );
      ( "report-json",
        [
          QCheck_alcotest.to_alcotest qcheck_json_float_roundtrip;
          Alcotest.test_case "non-finite floats rejected at emit" `Quick
            test_json_rejects_non_finite;
        ] );
      ( "source_lint",
        [
          Alcotest.test_case "unsafe conversions" `Quick test_lint_conversions;
          Alcotest.test_case "float literal equality" `Quick
            test_lint_float_equality;
          Alcotest.test_case "catch-all handlers" `Quick test_lint_catch_all;
          Alcotest.test_case "toplevel mutable state" `Quick
            test_lint_toplevel_state;
          Alcotest.test_case "determinism hazards" `Quick
            test_lint_determinism;
          Alcotest.test_case "parse failure" `Quick test_lint_parse_failure;
          Alcotest.test_case "bad fixture detected" `Quick test_lint_fixture;
          Alcotest.test_case "file walk skips build dirs" `Quick
            test_ml_files_under;
        ] );
      ( "par_lint",
        [
          Alcotest.test_case "unguarded mutation (P001)" `Quick
            test_par_unguarded_mutation;
          Alcotest.test_case "captured mutation (P002)" `Quick
            test_par_captured_mutation;
          Alcotest.test_case "atomic window (P003)" `Quick
            test_par_atomic_window;
          Alcotest.test_case "wait loop (P004)" `Quick test_par_wait_loop;
          Alcotest.test_case "blocking under lock (P005)" `Quick
            test_par_blocking_under_lock;
          Alcotest.test_case "mixed discipline (P006)" `Quick
            test_par_mixed_discipline;
          Alcotest.test_case "inlined lock inheritance" `Quick
            test_par_inlined_lock_inheritance;
          Alcotest.test_case "labelled callbacks stay synchronous" `Quick
            test_par_labelled_callback_not_parallel;
          Alcotest.test_case "parse failure" `Quick test_par_parse_failure;
          Alcotest.test_case "inventory" `Quick test_par_inventory;
          Alcotest.test_case "json report" `Quick test_par_json;
          Alcotest.test_case "bad fixture detected" `Quick test_par_fixture;
        ] );
    ]
