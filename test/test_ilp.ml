(* Tests for the LP/MILP substrate: unit tests on known instances, plus
   property-based cross-validation against the dense reference simplex and
   exhaustive enumeration. *)

module Lp = Optrouter_ilp.Lp
module Simplex = Optrouter_ilp.Simplex
module Dense = Dense_simplex
module Milp = Optrouter_ilp.Milp
module Lp_file = Optrouter_ilp.Lp_file
module Clip = Optrouter_grid.Clip
module Graph = Optrouter_grid.Graph
module Tech = Optrouter_tech.Tech
module Rules = Optrouter_tech.Rules
module Formulate = Optrouter_core.Formulate
module Clipfile = Optrouter_clipfile.Clipfile

let check_float = Alcotest.(check (float 1e-6))

(* Compact LP construction: [vars] are (name, lo, up, obj, kind); [rows]
   are (name, [(index, coeff)], sense, rhs). *)
let build vars rows =
  let b = Lp.Builder.create () in
  List.iter
    (fun (name, lower, upper, obj, kind) ->
      ignore (Lp.Builder.add_var b ~name ~lower ~upper ~obj kind))
    vars;
  List.iter
    (fun (name, coeffs, sense, rhs) -> Lp.Builder.add_row b ~name coeffs sense rhs)
    rows;
  Lp.Builder.finish b

let cont name lower upper obj = (name, lower, upper, obj, Lp.Continuous)
let bin name obj = (name, 0.0, 1.0, obj, Lp.Integer)

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

let test_builder_merges_duplicates () =
  let b = Lp.Builder.create () in
  let x = Lp.Builder.add_var b ~name:"x" ~lower:0.0 ~upper:1.0 ~obj:1.0 Lp.Continuous in
  Lp.Builder.add_row b ~name:"r" [ (x, 1.0); (x, 2.0) ] Lp.Le 5.0;
  let lp = Lp.Builder.finish b in
  Alcotest.(check int) "one row" 1 (Lp.nrows lp);
  let row = lp.rows.(0) in
  Alcotest.(check int) "one coeff" 1 (Array.length row.coeffs);
  let _, a = row.coeffs.(0) in
  check_float "merged coefficient" 3.0 a

let test_builder_drops_zero () =
  let b = Lp.Builder.create () in
  let x = Lp.Builder.add_var b ~name:"x" ~lower:0.0 ~upper:1.0 ~obj:0.0 Lp.Continuous in
  let y = Lp.Builder.add_var b ~name:"y" ~lower:0.0 ~upper:1.0 ~obj:0.0 Lp.Continuous in
  Lp.Builder.add_row b ~name:"r" [ (x, 1.0); (y, 1.0); (y, -1.0) ] Lp.Le 5.0;
  let lp = Lp.Builder.finish b in
  Alcotest.(check int) "y cancelled out" 1 (Array.length lp.rows.(0).coeffs)

let test_builder_cancels_to_empty () =
  (* repeated indices summing to exactly zero leave an EMPTY row, not a
     dropped one — the model auditor (A005/A007) depends on the row
     surviving so the cancellation stays visible *)
  let b = Lp.Builder.create () in
  let x = Lp.Builder.add_var b ~name:"x" ~lower:0.0 ~upper:1.0 ~obj:1.0 Lp.Continuous in
  Lp.Builder.add_row b ~name:"gone" [ (x, 2.5); (x, -2.5) ] Lp.Le 1.0;
  let lp = Lp.Builder.finish b in
  Alcotest.(check int) "row kept" 1 (Lp.nrows lp);
  Alcotest.(check int) "no coefficients" 0 (Array.length lp.rows.(0).coeffs);
  Alcotest.(check string) "name kept" "gone" lp.rows.(0).r_name;
  (* the empty row is vacuously satisfiable and must not break solving *)
  let res = Simplex.solve lp in
  Alcotest.(check bool) "still solves" true (res.status = Simplex.Optimal)

let test_builder_rejects_bad_bounds () =
  let b = Lp.Builder.create () in
  match
    Lp.Builder.add_var b ~name:"x" ~lower:2.0 ~upper:1.0 ~obj:0.0 Lp.Continuous
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_builder_rejects_bad_index () =
  let b = Lp.Builder.create () in
  ignore (Lp.Builder.add_var b ~name:"x" ~lower:0.0 ~upper:1.0 ~obj:0.0 Lp.Continuous);
  match Lp.Builder.add_row b ~name:"r" [ (7, 1.0) ] Lp.Le 1.0 with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Reference row normalisation: a Hashtbl sum per index (from 0.0, in
   list order), exact zeros dropped, then a sort by index.
   [Lp.Builder.add_row] must give every row bit for bit as this does. *)
let normalize_oracle nv name coeffs =
  let tbl = Hashtbl.create (List.length coeffs) in
  List.iter
    (fun (j, a) ->
      if j < 0 || j >= nv then
        invalid_arg
          (Printf.sprintf "Lp.Builder.add_row %s: variable index %d out of range"
             name j);
      let prev = Option.value (Hashtbl.find_opt tbl j) ~default:0.0 in
      Hashtbl.replace tbl j (prev +. a))
    coeffs;
  let entries =
    Hashtbl.fold (fun j a acc -> if a = 0.0 then acc else (j, a) :: acc) tbl []
  in
  let arr = Array.of_list entries in
  Array.sort (fun (j1, _) (j2, _) -> Int.compare j1 j2) arr;
  arr

let prop_builder_matches_oracle =
  let gen =
    let open QCheck.Gen in
    let* nv = int_range 1 8 in
    (* few indices and values that cancel, repeat and sign zero; an
       out-of-range index now and then *)
    let coeff =
      pair
        (frequency [ (30, int_bound (nv - 1)); (1, oneofl [ -1; nv ]) ])
        (frequency
           [
             (6, oneofl [ 1.0; -1.0; 2.5; -2.5; 0.5; 0.0; -0.0; 0.1; 0.2; -0.3 ]);
             (1, float_range (-1e3) 1e3);
             (1, oneofl [ 1e-300; 1e300; -1e300; 3e-17 ]);
           ])
    in
    let* coeffs = list_size (int_bound 40) coeff in
    return (nv, coeffs)
  in
  let print (nv, coeffs) =
    Printf.sprintf "nv=%d [%s]" nv
      (String.concat "; "
         (List.map (fun (j, a) -> Printf.sprintf "(%d, %h)" j a) coeffs))
  in
  let run f = try Ok (f ()) with Invalid_argument m -> Error m in
  QCheck.Test.make ~name:"add_row normalises rows bit for bit as the oracle"
    ~count:5_000 (QCheck.make ~print gen) (fun (nv, coeffs) ->
      let got =
        run (fun () ->
            let b = Lp.Builder.create () in
            for j = 0 to nv - 1 do
              ignore
                (Lp.Builder.add_var b ~name:(string_of_int j) ~lower:0.0
                   ~upper:1.0 ~obj:0.0 Lp.Continuous)
            done;
            Lp.Builder.add_row b ~name:"r" coeffs Lp.Le 1.0;
            (Lp.Builder.finish b).rows.(0).coeffs)
      in
      let want = run (fun () -> normalize_oracle nv "r" coeffs) in
      let bits = Array.map (fun (j, a) -> (j, Int64.bits_of_float a)) in
      Result.map bits got = Result.map bits want)

let test_feasibility_helpers () =
  let lp =
    build [ cont "x" 0.0 4.0 1.0; cont "y" 0.0 4.0 1.0 ]
      [ ("r1", [ (0, 1.0); (1, 1.0) ], Lp.Ge, 2.0) ]
  in
  Alcotest.(check bool) "feasible point" true (Lp.is_feasible lp [| 1.0; 1.5 |]);
  Alcotest.(check bool) "violates row" false (Lp.is_feasible lp [| 0.5; 0.5 |]);
  Alcotest.(check bool) "violates bound" false (Lp.is_feasible lp [| 5.0; 0.0 |]);
  check_float "objective" 2.5 (Lp.objective_value lp [| 1.0; 1.5 |])

(* ------------------------------------------------------------------ *)
(* Simplex on known instances                                          *)
(* ------------------------------------------------------------------ *)

let solve_optimal lp =
  let res = Simplex.solve lp in
  (match res.status with
  | Simplex.Optimal -> ()
  | Simplex.Infeasible -> Alcotest.fail "unexpected Infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected Unbounded");
  (match Simplex.verify_optimal lp res with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("optimality certificate failed: " ^ e));
  res

let test_simplex_2var () =
  (* min -x - 2y s.t. x + y <= 4, x, y in [0, 3]: optimum at (1, 3), obj -7 *)
  let lp =
    build [ cont "x" 0.0 3.0 (-1.0); cont "y" 0.0 3.0 (-2.0) ]
      [ ("cap", [ (0, 1.0); (1, 1.0) ], Lp.Le, 4.0) ]
  in
  let res = solve_optimal lp in
  check_float "objective" (-7.0) res.objective;
  check_float "x" 1.0 res.x.(0);
  check_float "y" 3.0 res.x.(1)

let test_simplex_equality () =
  (* min x + y s.t. x + 2y = 4, x,y >= 0: optimum (0, 2), obj 2 *)
  let lp =
    build [ cont "x" 0.0 10.0 1.0; cont "y" 0.0 10.0 1.0 ]
      [ ("eq", [ (0, 1.0); (1, 2.0) ], Lp.Eq, 4.0) ]
  in
  let res = solve_optimal lp in
  check_float "objective" 2.0 res.objective;
  check_float "y" 2.0 res.x.(1)

let test_simplex_infeasible () =
  let lp =
    build [ cont "x" 0.0 1.0 1.0 ]
      [
        ("lo", [ (0, 1.0) ], Lp.Ge, 2.0);
        ("hi", [ (0, 1.0) ], Lp.Le, 1.0);
      ]
  in
  let res = Simplex.solve lp in
  Alcotest.(check bool) "infeasible" true (res.status = Simplex.Infeasible)

let test_simplex_infeasible_eq_pair () =
  let lp =
    build
      [ cont "x" 0.0 10.0 0.0; cont "y" 0.0 10.0 0.0 ]
      [
        ("a", [ (0, 1.0); (1, 1.0) ], Lp.Eq, 1.0);
        ("b", [ (0, 1.0); (1, 1.0) ], Lp.Eq, 2.0);
      ]
  in
  let res = Simplex.solve lp in
  Alcotest.(check bool) "infeasible" true (res.status = Simplex.Infeasible)

let test_simplex_unbounded () =
  let lp =
    build [ cont "x" 0.0 infinity (-1.0) ]
      [ ("r", [ (0, -1.0) ], Lp.Le, 0.0) ]
  in
  let res = Simplex.solve lp in
  Alcotest.(check bool) "unbounded" true (res.status = Simplex.Unbounded)

let test_simplex_bounds_only () =
  (* No rows: min -2x + y drives x to upper, y to lower. *)
  let lp = build [ cont "x" 1.0 5.0 (-2.0); cont "y" 2.0 7.0 1.0 ] [] in
  let res = solve_optimal lp in
  check_float "x at upper" 5.0 res.x.(0);
  check_float "y at lower" 2.0 res.x.(1);
  check_float "objective" (-8.0) res.objective

let test_simplex_negative_lower () =
  (* Variables with negative lower bounds. min x s.t. x >= -3. *)
  let lp =
    build [ cont "x" (-5.0) 5.0 1.0 ] [ ("r", [ (0, 1.0) ], Lp.Ge, -3.0) ]
  in
  let res = solve_optimal lp in
  check_float "objective" (-3.0) res.objective

let test_simplex_free_variable () =
  (* Free variable pinned by an equality: min y s.t. x + y = 2, y >= 0,
     x free with x <= 1 forces y >= 1. *)
  let lp =
    build
      [ cont "x" neg_infinity 1.0 0.0; cont "y" 0.0 infinity 1.0 ]
      [ ("eq", [ (0, 1.0); (1, 1.0) ], Lp.Eq, 2.0) ]
  in
  let res = solve_optimal lp in
  check_float "objective" 1.0 res.objective

let test_simplex_degenerate () =
  (* Multiple redundant constraints through the optimum. *)
  let lp =
    build
      [ cont "x" 0.0 10.0 (-1.0); cont "y" 0.0 10.0 (-1.0) ]
      [
        ("a", [ (0, 1.0); (1, 1.0) ], Lp.Le, 2.0);
        ("b", [ (0, 1.0); (1, 1.0) ], Lp.Le, 2.0);
        ("c", [ (0, 2.0); (1, 2.0) ], Lp.Le, 4.0);
        ("d", [ (0, 1.0) ], Lp.Le, 2.0);
        ("e", [ (1, 1.0) ], Lp.Le, 2.0);
      ]
  in
  let res = solve_optimal lp in
  check_float "objective" (-2.0) res.objective

let test_simplex_warm_start () =
  let lp =
    build
      [ cont "x" 0.0 3.0 (-1.0); cont "y" 0.0 3.0 (-2.0); cont "z" 0.0 3.0 1.0 ]
      [
        ("cap", [ (0, 1.0); (1, 1.0); (2, 1.0) ], Lp.Le, 4.0);
        ("mix", [ (0, 1.0); (1, -1.0) ], Lp.Ge, -2.0);
      ]
  in
  let inst = Simplex.Instance.create lp in
  let r1 = Simplex.Instance.solve inst in
  let r2 =
    Simplex.Instance.solve
      ~params:(Simplex.make_params ~basis:r1.basis ())
      inst
  in
  Alcotest.(check bool) "optimal again" true (r2.status = Simplex.Optimal);
  check_float "same objective" r1.objective r2.objective;
  Alcotest.(check bool)
    "warm start converges fast" true
    (r2.iterations <= r1.iterations);
  Alcotest.(check bool)
    "warm start reported" true
    (match r2.warm with
    | `Reused | `Repaired -> true
    | `Cold | `Abandoned -> false)

(* The optimal basis for cost c is primal feasible but not dual feasible
   for cost -c: the solve keeps it and runs the primal from it, and agrees
   with a cold solve. *)
let test_simplex_warm_start_primal_feasible () =
  let vars sign =
    [
      cont "x" 0.0 3.0 (sign *. -1.0);
      cont "y" 0.0 3.0 (sign *. -2.0);
      cont "z" 0.0 3.0 (sign *. 1.0);
    ]
  in
  let rows =
    [
      ("cap", [ (0, 1.0); (1, 1.0); (2, 1.0) ], Lp.Le, 4.0);
      ("mix", [ (0, 1.0); (1, -1.0) ], Lp.Ge, -2.0);
    ]
  in
  let basis = (Simplex.solve (build (vars 1.0) rows)).basis in
  let lp = build (vars (-1.0)) rows in
  let warm =
    Simplex.Instance.solve
      ~params:(Simplex.make_params ~basis ())
      (Simplex.Instance.create lp)
  in
  let cold = Simplex.solve lp in
  Alcotest.(check bool)
    "reused" true
    (match warm.warm with
    | `Reused -> true
    | `Cold | `Repaired | `Abandoned -> false);
  Alcotest.(check bool) "same status" true (warm.status = cold.status);
  check_float "same objective" cold.objective warm.objective;
  Alcotest.(check bool)
    "certified" true
    (Simplex.verify_optimal lp warm = Ok ())

(* A basis that is neither primal nor dual feasible (every column at its
   upper bound overfills [cap], and x at its upper bound has a positive
   cost) is thrown away: the solve restarts from the all-slack basis and
   reports it as abandoned, never as a cold solve that was given no
   basis. *)
let test_simplex_warm_start_abandoned () =
  let lp =
    build
      [ cont "x" 0.0 3.0 1.0; cont "y" 0.0 3.0 2.0; cont "z" 0.0 3.0 (-1.0) ]
      [
        ("cap", [ (0, 1.0); (1, 1.0); (2, 1.0) ], Lp.Le, 4.0);
        ("mix", [ (0, 1.0); (1, -1.0) ], Lp.Ge, -2.0);
      ]
  in
  let basis = Option.get (Simplex.Basis.of_point lp [| 3.0; 3.0; 3.0 |]) in
  let warm =
    Simplex.Instance.solve
      ~params:(Simplex.make_params ~basis ())
      (Simplex.Instance.create lp)
  in
  let cold = Simplex.solve lp in
  Alcotest.(check bool)
    "abandoned" true
    (match warm.warm with
    | `Abandoned -> true
    | `Cold | `Reused | `Repaired -> false);
  Alcotest.(check bool) "same status" true (warm.status = cold.status);
  check_float "same objective" cold.objective warm.objective

(* The crash basis of a point: slacks basic, each structural column at the
   bound the point sits on; none for a point strictly inside a bound. *)
let test_basis_of_point () =
  let lp =
    build
      [ cont "x" 0.0 3.0 1.0; cont "y" 1.0 1.0 2.0; cont "z" (-2.0) 3.0 0.0 ]
      [ ("cap", [ (0, 1.0); (1, 1.0); (2, 1.0) ], Lp.Le, 4.0) ]
  in
  (match Simplex.Basis.of_point lp [| 3.0; 1.0; -2.0 |] with
  | None -> Alcotest.fail "a point on its bounds has a crash basis"
  | Some b ->
    Alcotest.(check bool)
      "statuses" true
      (b.vstat = [| Simplex.At_upper; At_lower; At_lower; Basic |]);
    Alcotest.(check (array int)) "the slack is basic" [| 3 |] b.basic;
    let r =
      Simplex.Instance.solve
        ~params:(Simplex.make_params ~basis:b ())
        (Simplex.Instance.create lp)
    in
    Alcotest.(check bool)
      "kept" true
      (match r.warm with
      | `Reused -> true
      | `Cold | `Repaired | `Abandoned -> false);
    check_float "objective" 2.0 r.objective);
  Alcotest.(check bool)
    "interior point" true
    (Simplex.Basis.of_point lp [| 1.5; 1.0; -2.0 |] = None)

let test_simplex_warm_start_changed_bounds () =
  let lp =
    build
      [ cont "x" 0.0 1.0 (-1.0); cont "y" 0.0 1.0 (-1.0) ]
      [ ("cap", [ (0, 1.0); (1, 1.0) ], Lp.Le, 2.0) ]
  in
  let inst = Simplex.Instance.create lp in
  let r1 = Simplex.Instance.solve inst in
  check_float "both at 1" (-2.0) r1.objective;
  (* Fix x to 0 and restart from the old basis. *)
  let r2 =
    Simplex.Instance.solve
      ~params:
        (Simplex.make_params ~basis:r1.basis ~lower:[| 0.0; 0.0 |]
           ~upper:[| 0.0; 1.0 |] ())
      inst
  in
  Alcotest.(check bool) "optimal" true (r2.status = Simplex.Optimal);
  check_float "objective" (-1.0) r2.objective;
  check_float "x fixed" 0.0 r2.x.(0)

(* A long step whose flips pay off the leaving row exactly. Fixing x0 at 1
   drives the slack of x0 + 0.1 x1 + 0.2 x2 <= 1 to about -0.3; flipping x2
   and then x1 down pays 0.2 + 0.1 of it, and round-off leaves ~1e-16
   unpaid. Passing x1's group as well would leave no candidate, and the
   refused "ray" (the row does reach its bound) would restart the solve
   cold; the walk must instead enter x1 and keep the basis. *)
let test_simplex_warm_exact_payoff () =
  let lp =
    build
      [ cont "x0" 0.0 1.0 1.0; cont "x1" 0.0 1.0 (-1.0); cont "x2" 0.0 1.0 (-1.0) ]
      [ ("row", [ (0, 1.0); (1, 0.1); (2, 0.2) ], Lp.Le, 1.0) ]
  in
  let inst = Simplex.Instance.create lp in
  let r1 = Simplex.Instance.solve inst in
  check_float "x1, x2 at their upper bounds" (-2.0) r1.objective;
  let r2 =
    Simplex.Instance.solve
      ~params:(Simplex.make_params ~basis:r1.basis ~lower:[| 1.0; 0.0; 0.0 |] ())
      inst
  in
  Alcotest.(check bool) "optimal" true (r2.status = Simplex.Optimal);
  check_float "objective" 1.0 r2.objective;
  Alcotest.(check bool)
    "basis kept" true
    (match r2.warm with
    | `Reused | `Repaired -> true
    | `Cold | `Abandoned -> false)

let test_simplex_ge_rows () =
  (* Classic diet-style LP. min 2x + 3y s.t. x + y >= 4, x + 3y >= 6. *)
  let lp =
    build
      [ cont "x" 0.0 100.0 2.0; cont "y" 0.0 100.0 3.0 ]
      [
        ("r1", [ (0, 1.0); (1, 1.0) ], Lp.Ge, 4.0);
        ("r2", [ (0, 1.0); (1, 3.0) ], Lp.Ge, 6.0);
      ]
  in
  let res = solve_optimal lp in
  (* Optimum at the intersection (3, 1): obj 9. *)
  check_float "objective" 9.0 res.objective

let test_simplex_fixed_variable () =
  let lp =
    build
      [ cont "x" 2.0 2.0 5.0; cont "y" 0.0 10.0 1.0 ]
      [ ("r", [ (0, 1.0); (1, 1.0) ], Lp.Ge, 5.0) ]
  in
  let res = solve_optimal lp in
  check_float "x pinned" 2.0 res.x.(0);
  check_float "objective" 13.0 res.objective

let test_simplex_empty_lp () =
  (* No columns at all: the devex scan must not touch a column, and the
     branch and bound above it must prove the empty point optimal. *)
  let lp = Lp.Builder.finish (Lp.Builder.create ()) in
  let res = Simplex.solve lp in
  Alcotest.(check bool) "LP optimal" true (res.status = Simplex.Optimal);
  check_float "LP objective" 0.0 res.objective;
  let m = Milp.solve lp in
  Alcotest.(check bool) "MILP proved optimal" true
    (m.outcome = Milp.Proved_optimal);
  check_float "MILP objective" 0.0 m.objective

(* ------------------------------------------------------------------ *)
(* Property-based: random LPs vs the dense oracle                      *)
(* ------------------------------------------------------------------ *)

let lp_of_ints objs uppers rows =
  let b = Lp.Builder.create () in
  Array.iteri
    (fun j obj ->
      ignore
        (Lp.Builder.add_var b
           ~name:(Printf.sprintf "x%d" j)
           ~lower:0.0
           ~upper:(float_of_int uppers.(j))
           ~obj:(float_of_int obj) Lp.Continuous))
    objs;
  List.iteri
    (fun i (cs, sense, rhs) ->
      let coeffs =
        Array.to_list (Array.mapi (fun j c -> (j, float_of_int c)) cs)
        |> List.filter (fun (_, c) -> c <> 0.0)
      in
      Lp.Builder.add_row b ~name:(Printf.sprintf "r%d" i) coeffs sense
        (float_of_int rhs))
    rows;
  Lp.Builder.finish b

let random_lp_gen =
  let open QCheck.Gen in
  let* nv = int_range 1 6 in
  let* nr = int_range 0 6 in
  let* objs = array_size (return nv) (int_range (-5) 5) in
  let* uppers = array_size (return nv) (int_range 0 5) in
  let coeff = int_range (-4) 4 in
  let* rows =
    list_size (return nr)
      (let* cs = array_size (return nv) coeff in
       let* sense = oneofl [ Lp.Le; Lp.Ge; Lp.Eq ] in
       let* rhs = int_range (-6) 10 in
       return (cs, sense, rhs))
  in
  return (lp_of_ints objs uppers rows)

let arbitrary_lp = QCheck.make ~print:(Format.asprintf "%a" Lp.pp) random_lp_gen

let prop_simplex_matches_dense =
  QCheck.Test.make ~name:"simplex agrees with dense oracle" ~count:500
    arbitrary_lp (fun lp ->
      let sparse = Simplex.solve lp in
      let dense = Dense.solve lp in
      match (sparse.status, dense) with
      | Simplex.Optimal, Dense.Optimal (obj, _) ->
        Float.abs (sparse.objective -. obj) <= 1e-5
      | Simplex.Infeasible, Dense.Infeasible -> true
      | _, _ -> false)

let prop_simplex_certificate =
  QCheck.Test.make ~name:"optimal solutions carry a valid KKT certificate"
    ~count:500 arbitrary_lp (fun lp ->
      let res = Simplex.solve lp in
      match res.status with
      | Simplex.Optimal -> Result.is_ok (Simplex.verify_optimal lp res)
      | Simplex.Infeasible | Simplex.Unbounded -> true)

(* Constructed-feasible LPs: plant a feasible point, so Infeasible is
   never a correct answer. *)
let feasible_lp_gen =
  let open QCheck.Gen in
  let* nv = int_range 1 6 in
  let* nr = int_range 1 6 in
  let* x0 = array_size (return nv) (int_range 0 4) in
  let* objs = array_size (return nv) (int_range (-5) 5) in
  let coeff = int_range (-3) 3 in
  let* specs =
    list_size (return nr)
      (let* cs = array_size (return nv) coeff in
       let* sense = oneofl [ Lp.Le; Lp.Ge; Lp.Eq ] in
       let* slackness = int_range 0 3 in
       return (cs, sense, slackness))
  in
  let rows =
    List.map
      (fun (cs, sense, slackness) ->
        let activity =
          Array.to_list (Array.mapi (fun j c -> c * x0.(j)) cs)
          |> List.fold_left ( + ) 0
        in
        let rhs =
          match sense with
          | Lp.Le -> activity + slackness
          | Lp.Ge -> activity - slackness
          | Lp.Eq -> activity
        in
        (cs, sense, rhs))
      specs
  in
  return (lp_of_ints objs (Array.make nv 6) rows)

let prop_feasible_lp_solved =
  QCheck.Test.make ~name:"constructed-feasible LPs are solved to optimality"
    ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Lp.pp) feasible_lp_gen)
    (fun lp ->
      let res = Simplex.solve lp in
      res.status = Simplex.Optimal
      && Result.is_ok (Simplex.verify_optimal lp res)
      &&
      match Dense.solve lp with
      | Dense.Optimal (obj, _) -> Float.abs (res.objective -. obj) <= 1e-5
      | Dense.Infeasible | Dense.Unbounded -> false)

(* A random warm basis with exactly [m] basics: a random choice of [m]
   columns in a random order, every other column nonbasic at a random
   bound. Such bases are often singular, so intake refactorisation has to
   drop columns and let slacks take their rows, and a basic slack can find
   its own row already taken by a structural column. *)
let warm_basis_gen lp =
  let open QCheck.Gen in
  let n = Lp.nvars lp and m = Lp.nrows lp in
  let* cols = shuffle_l (List.init (n + m) Fun.id) in
  let* at_upper = array_size (return (n + m)) bool in
  let basic = Array.of_list (List.filteri (fun i _ -> i < m) cols) in
  let vstat =
    Array.map (fun u -> if u then Simplex.At_upper else Simplex.At_lower) at_upper
  in
  Array.iter (fun j -> vstat.(j) <- Simplex.Basic) basic;
  return ({ Simplex.vstat; basic } : Simplex.basis)

let prop_refactor_repairs_warm_bases =
  let gen =
    let open QCheck.Gen in
    let* lp = oneof [ random_lp_gen; feasible_lp_gen ] in
    let* basis = warm_basis_gen lp in
    return (lp, basis)
  in
  let print (lp, (b : Simplex.basis)) =
    Format.asprintf "%a@.basic = [%s]" Lp.pp lp
      (String.concat "; " (Array.to_list (Array.map string_of_int b.basic)))
  in
  (* A slack finds its row taken only when a one-nonzero structural column
     on that row is placed first, about one case in 170, so the property
     runs many (tiny) cases. *)
  QCheck.Test.make ~name:"refactor repairs random singular warm bases"
    ~count:10_000 (QCheck.make ~print gen) (fun (lp, basis) ->
      (* Refactorising after every pivot re-runs column placement on
         every basis the solve passes through. *)
      let refactor = { Simplex.default_refactor with Simplex.interval = 1 } in
      let res =
        Simplex.Instance.solve
          ~params:(Simplex.make_params ~basis ~refactor ())
          (Simplex.Instance.create lp)
      in
      match (res.status, Dense.solve lp) with
      | Simplex.Optimal, Dense.Optimal (obj, _) ->
        Float.abs (res.objective -. obj) <= 1e-5
        && Result.is_ok (Simplex.verify_optimal lp res)
      | Simplex.Infeasible, Dense.Infeasible -> true
      | _, _ -> false)

(* The relaxation of a small 0/1 program, the routing LPs' shape: every
   variable in [0, 1] and wider coefficients, so a dual long step can pay
   for flipping several boxed columns at once. *)
let box_lp_gen =
  let open QCheck.Gen in
  let* nv = int_range 2 8 in
  let* nr = int_range 1 4 in
  let* objs = array_size (return nv) (int_range (-5) 5) in
  let* rows =
    list_size (return nr)
      (let* cs = array_size (return nv) (int_range (-7) 7) in
       let* sense = oneofl [ Lp.Le; Lp.Ge; Lp.Eq ] in
       let* rhs = int_range (-6) 10 in
       return (cs, sense, rhs))
  in
  return (lp_of_ints objs (Array.make nv 1) rows)

(* [lp] with its structural bounds replaced by [lo] and [up]. *)
let with_bounds (lp : Lp.t) lo up =
  let b = Lp.Builder.create () in
  Array.iteri
    (fun j (v : Lp.var) ->
      ignore
        (Lp.Builder.add_var b ~name:v.v_name ~lower:lo.(j) ~upper:up.(j)
           ~obj:v.obj v.kind))
    lp.vars;
  Array.iter
    (fun (r : Lp.row) ->
      Lp.Builder.add_row b ~name:r.r_name (Array.to_list r.coeffs) r.sense
        r.rhs)
    lp.rows;
  Lp.Builder.finish b

(* Branch-and-bound re-solves in miniature: solve an LP cold, cut 1-3
   variables off their optimal values as [Milp.children] does (the down
   side caps a variable at ceil x - 1, the up side raises it to
   floor x + 1, clamped to the other bound), and re-solve from the parent
   basis. The dual re-optimisation then passes bound-flip breakpoints in
   its long steps (several in one step on about one case in 1,500) and
   meets dual rays on infeasible children (about one case in five), and
   the warm verdict must match the dense oracle's on the child LP. *)
let prop_branch_resolves_match_dense =
  let gen =
    let open QCheck.Gen in
    let* lp = oneof [ random_lp_gen; feasible_lp_gen; box_lp_gen ] in
    let* cuts = list_size (int_range 1 3) (pair (int_bound 7) bool) in
    return (lp, cuts)
  in
  let print (lp, cuts) =
    Format.asprintf "%a@.cuts = [%s]" Lp.pp lp
      (String.concat "; "
         (List.map
            (fun (j, up) -> Printf.sprintf "%d %s" j (if up then "up" else "down"))
            cuts))
  in
  QCheck.Test.make ~name:"warm re-solves of branched children match the oracle"
    ~count:10_000 (QCheck.make ~print gen) (fun (lp, cuts) ->
      let inst = Simplex.Instance.create lp in
      let parent = Simplex.Instance.solve inst in
      parent.status <> Simplex.Optimal
      ||
      let n = Lp.nvars lp in
      let lo = Array.map (fun (v : Lp.var) -> v.lower) lp.vars in
      let up = Array.map (fun (v : Lp.var) -> v.upper) lp.vars in
      List.iter
        (fun (j, raise_lower) ->
          let j = j mod n in
          let x = parent.x.(j) in
          if raise_lower then lo.(j) <- Float.min up.(j) (Float.floor x +. 1.0)
          else up.(j) <- Float.max lo.(j) (Float.ceil x -. 1.0))
        cuts;
      let res =
        Simplex.Instance.solve
          ~params:
            (Simplex.make_params ~basis:parent.basis ~lower:lo ~upper:up ())
          inst
      in
      let child = with_bounds lp lo up in
      match (res.status, Dense.solve child) with
      | Simplex.Optimal, Dense.Optimal (obj, _) ->
        Float.abs (res.objective -. obj) <= 1e-6
        && Result.is_ok (Simplex.verify_optimal child res)
      | Simplex.Infeasible, Dense.Infeasible -> true
      | Simplex.Unbounded, Dense.Unbounded -> true
      | _, _ -> false)

(* ------------------------------------------------------------------ *)
(* MILP                                                                *)
(* ------------------------------------------------------------------ *)

let test_milp_knapsack () =
  (* max 10a + 6b + 4c s.t. a + b + c <= 2 (binary): best {a, b} = 16. *)
  let lp =
    build
      [ bin "a" (-10.0); bin "b" (-6.0); bin "c" (-4.0) ]
      [ ("cap", [ (0, 1.0); (1, 1.0); (2, 1.0) ], Lp.Le, 2.0) ]
  in
  let res = Milp.solve lp in
  Alcotest.(check bool) "optimal" true (res.outcome = Milp.Proved_optimal);
  check_float "objective" (-16.0) res.objective;
  check_float "a" 1.0 res.x.(0);
  check_float "b" 1.0 res.x.(1);
  check_float "c" 0.0 res.x.(2)

let test_milp_forces_branching () =
  (* min -x1 - x2 s.t. 2x1 + 2x2 <= 3 (binary): LP gives -1.5, ILP -1. *)
  let lp =
    build
      [ bin "x1" (-1.0); bin "x2" (-1.0) ]
      [ ("r", [ (0, 2.0); (1, 2.0) ], Lp.Le, 3.0) ]
  in
  let relax = Simplex.solve lp in
  check_float "relaxation" (-1.5) relax.objective;
  let res = Milp.solve lp in
  Alcotest.(check bool) "optimal" true (res.outcome = Milp.Proved_optimal);
  check_float "objective" (-1.0) res.objective;
  Alcotest.(check bool) "integral" true (Lp.is_integral lp res.x)

let test_milp_infeasible () =
  let lp =
    build
      [ bin "x1" 1.0; bin "x2" 1.0 ]
      [ ("r", [ (0, 1.0); (1, 1.0) ], Lp.Ge, 3.0) ]
  in
  let res = Milp.solve lp in
  Alcotest.(check bool) "infeasible" true (res.outcome = Milp.Infeasible)

let test_milp_integrality_gap_only_in_lp () =
  (* 2x = 1 has no integer solution, so the MILP is infeasible while the
     relaxation is not. *)
  let lp = build [ bin "x" 1.0 ] [ ("eq", [ (0, 2.0) ], Lp.Eq, 1.0) ] in
  let relax = Simplex.solve lp in
  Alcotest.(check bool) "LP feasible" true (relax.status = Simplex.Optimal);
  let res = Milp.solve lp in
  Alcotest.(check bool) "MILP infeasible" true (res.outcome = Milp.Infeasible)

let test_milp_fixed_integer () =
  let lp = build [ ("n", 2.0, 2.0, 3.0, Lp.Integer) ] [] in
  let res = Milp.solve lp in
  Alcotest.(check bool) "optimal" true (res.outcome = Milp.Proved_optimal);
  check_float "objective" 6.0 res.objective;
  Alcotest.(check (array (float 1e-6))) "x" [| 2.0 |] res.x

let test_milp_mixed () =
  (* Integer count + continuous remainder. min 5n + r s.t. 3n + r = 7,
     r in [0, 2.5]: n must be >= 1.5 -> n = 2, r = 1: obj 11. *)
  let lp =
    build
      [
        ("n", 0.0, 10.0, 5.0, Lp.Integer);
        ("r", 0.0, 2.5, 1.0, Lp.Continuous);
      ]
      [ ("eq", [ (0, 3.0); (1, 1.0) ], Lp.Eq, 7.0) ]
  in
  let res = Milp.solve lp in
  Alcotest.(check bool) "optimal" true (res.outcome = Milp.Proved_optimal);
  check_float "objective" 11.0 res.objective;
  check_float "n" 2.0 res.x.(0);
  check_float "r" 1.0 res.x.(1)

(* ------------------------------------------------------------------ *)
(* Branching variable selection                                        *)
(* ------------------------------------------------------------------ *)

let branch_tol = 1e-6

let test_most_fractional_basic () =
  let lp =
    build
      [ bin "x" 1.0; bin "y" 1.0; cont "z" 0.0 1.0 1.0 ]
      []
  in
  Alcotest.(check (option int))
    "fractional binary picked" (Some 1)
    (Milp.most_fractional branch_tol lp [| 1.0; 0.5; 0.0 |]);
  Alcotest.(check (option int))
    "continuous fraction ignored" None
    (Milp.most_fractional branch_tol lp [| 1.0; 0.0; 0.5 |]);
  Alcotest.(check (option int))
    "integral point" None
    (Milp.most_fractional branch_tol lp [| 0.0; 1.0; 0.3 |])

let test_most_fractional_objective_weighting () =
  (* Equal fractionality: the variable with the larger |obj| wins. *)
  let lp = build [ bin "cheap" 1.0; bin "dear" (-10.0) ] [] in
  Alcotest.(check (option int))
    "expensive decision fixed first" (Some 1)
    (Milp.most_fractional branch_tol lp [| 0.5; 0.5 |])

let test_most_fractional_huge_values () =
  (* Regression: the fractional part used to be computed through
     [int_of_float], which is undefined for doubles beyond the native
     int range and could report a huge integral value as fractional.
     Doubles >= 2^53 are integral by construction. *)
  let lp =
    build
      [ ("big", 0.0, 1e30, 1.0, Lp.Integer); bin "x" 1.0 ]
      []
  in
  Alcotest.(check (option int))
    "1e19 is integral" None
    (Milp.most_fractional branch_tol lp [| 1e19; 1.0 |]);
  Alcotest.(check (option int))
    "huge integral does not shadow a real fraction" (Some 1)
    (Milp.most_fractional branch_tol lp [| 1e19; 0.5 |])

let test_milp_node_limit () =
  let lp =
    build
      [ bin "x1" (-1.0); bin "x2" (-1.0); bin "x3" (-1.0) ]
      [ ("r", [ (0, 2.0); (1, 2.0); (2, 2.0) ], Lp.Le, 5.0) ]
  in
  let params = Milp.make_params ~max_nodes:1 () in
  let res = Milp.solve ~params lp in
  Alcotest.(check bool)
    "limit reported" true
    (match res.outcome with
    | Milp.Feasible | Milp.Unknown -> true
    | Milp.Proved_optimal | Milp.Infeasible | Milp.Unbounded -> false)

(* Exhaustive oracle for pure-binary MILPs. *)
let enumerate_binary_optimum (lp : Lp.t) =
  let n = Lp.nvars lp in
  assert (n <= 12);
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x =
      Array.init n (fun j -> if mask land (1 lsl j) <> 0 then 1.0 else 0.0)
    in
    if Lp.is_feasible lp x then begin
      let obj = Lp.objective_value lp x in
      match !best with
      | Some b when b <= obj -> ()
      | Some _ | None -> best := Some obj
    end
  done;
  !best

let random_binary_milp_gen =
  let open QCheck.Gen in
  let* nv = int_range 1 8 in
  let* nr = int_range 0 5 in
  let* objs = array_size (return nv) (int_range (-6) 6) in
  let coeff = int_range (-3) 3 in
  let* rows =
    list_size (return nr)
      (let* cs = array_size (return nv) coeff in
       let* sense = oneofl [ Lp.Le; Lp.Ge ] in
       let* rhs = int_range (-4) 6 in
       return (cs, sense, rhs))
  in
  let b = Lp.Builder.create () in
  Array.iteri
    (fun j obj ->
      ignore
        (Lp.Builder.add_binary b
           ~name:(Printf.sprintf "x%d" j)
           ~obj:(float_of_int obj)))
    objs;
  List.iteri
    (fun i (cs, sense, rhs) ->
      let coeffs =
        Array.to_list (Array.mapi (fun j c -> (j, float_of_int c)) cs)
        |> List.filter (fun (_, c) -> c <> 0.0)
      in
      Lp.Builder.add_row b ~name:(Printf.sprintf "r%d" i) coeffs sense
        (float_of_int rhs))
    rows;
  return (Lp.Builder.finish b)

(* The feasible 0/1 point of least mask, if any: a valid incumbent that
   is seldom optimal. *)
let first_binary_point (lp : Lp.t) =
  let n = Lp.nvars lp in
  let point mask =
    Array.init n (fun j -> if mask land (1 lsl j) <> 0 then 1.0 else 0.0)
  in
  Seq.find (Lp.is_feasible lp) (Seq.map point (Seq.init (1 lsl n) Fun.id))

(* Each instance is solved without and with a feasible initial point,
   which also crashes the root LP at that point's bounds. *)
let prop_milp_matches_enumeration =
  QCheck.Test.make ~name:"milp agrees with exhaustive binary enumeration"
    ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" Lp.pp) random_binary_milp_gen)
    (fun lp ->
      let agrees (res : Milp.result) =
        match (res.outcome, enumerate_binary_optimum lp) with
        | Milp.Proved_optimal, Some best ->
          Float.abs (res.objective -. best) <= 1e-6
          && Lp.is_integral lp res.x
          && Lp.is_feasible lp res.x
        | Milp.Infeasible, None -> true
        | _, _ -> false
      in
      agrees (Milp.solve lp)
      &&
      match first_binary_point lp with
      | None -> true
      | Some x0 -> agrees (Milp.solve ~initial:x0 lp))

let test_milp_initial_incumbent () =
  (* A valid initial point prunes immediately when the bound matches. *)
  let lp =
    build
      [ bin "a" (-10.0); bin "b" (-6.0); bin "c" (-4.0) ]
      [ ("cap", [ (0, 1.0); (1, 1.0); (2, 1.0) ], Lp.Le, 2.0) ]
  in
  let res = Milp.solve ~initial:[| 1.0; 1.0; 0.0 |] lp in
  Alcotest.(check bool) "optimal" true (res.outcome = Milp.Proved_optimal);
  check_float "objective" (-16.0) res.objective

let test_milp_initial_crash_root () =
  (* A 0/1 initial point also crashes the root LP: the root starts from
     that point's bounds, is still reported cold (it was given no basis),
     and proves the objective a solve without the point proves. *)
  let lp =
    build
      [ bin "a" (-10.0); bin "b" (-6.0); bin "c" (-4.0); bin "d" 3.0 ]
      [
        ("cap", [ (0, 1.0); (1, 1.0); (2, 1.0) ], Lp.Le, 2.0);
        ("link", [ (0, 1.0); (3, -1.0) ], Lp.Le, 0.5);
      ]
  in
  let plain = Milp.solve lp in
  let crash = Milp.solve ~initial:[| 0.0; 1.0; 0.0; 0.0 |] lp in
  Alcotest.(check bool)
    "optimal" true
    (crash.outcome = Milp.Proved_optimal && plain.outcome = Milp.Proved_optimal);
  check_float "same objective" plain.objective crash.objective;
  Alcotest.(check bool)
    "crash root reported cold" true
    (match crash.root_warm with
    | `Cold -> true
    | `Reused | `Repaired | `Abandoned -> false);
  (* An integer column strictly inside its bounds has no bound to crash
     at: the root LP runs exactly as without the point. *)
  let lp =
    build
      [ bin "a" (-10.0); ("k", 0.0, 3.0, 1.0, Lp.Integer); bin "b" (-2.0) ]
      [
        ("need", [ (0, 2.0); (1, -1.0) ], Lp.Le, 0.0);
        ("cap", [ (0, 1.0); (2, 1.0) ], Lp.Le, 1.5);
      ]
  in
  let plain = Milp.solve lp in
  let inside = Milp.solve ~initial:[| 1.0; 2.0; 0.0 |] lp in
  check_float "same objective" plain.objective inside.objective;
  Alcotest.(check int)
    "same root iterations" plain.root_lp_iters inside.root_lp_iters;
  Alcotest.(check bool)
    "cold root" true
    (match inside.root_warm with
    | `Cold -> true
    | `Reused | `Repaired | `Abandoned -> false)

let test_milp_initial_invalid_ignored () =
  (* An infeasible initial point must not corrupt the search. *)
  let lp =
    build
      [ bin "a" (-10.0); bin "b" (-6.0) ]
      [ ("cap", [ (0, 1.0); (1, 1.0) ], Lp.Le, 1.0) ]
  in
  let res = Milp.solve ~initial:[| 1.0; 1.0 |] lp in
  Alcotest.(check bool) "optimal" true (res.outcome = Milp.Proved_optimal);
  check_float "objective" (-10.0) res.objective

let test_milp_cutoff_confirms_external_optimum () =
  (* cutoff equal to the true optimum: search proves nothing better exists
     and reports the external objective with an empty point. *)
  let lp =
    build
      [ bin "a" (-3.0); bin "b" (-2.0) ]
      [ ("cap", [ (0, 2.0); (1, 2.0) ], Lp.Le, 3.0) ]
  in
  let res = Milp.solve ~cutoff:(-3.0) lp in
  Alcotest.(check bool) "optimal" true (res.outcome = Milp.Proved_optimal);
  check_float "objective" (-3.0) res.objective;
  Alcotest.(check int) "empty point" 0 (Array.length res.x)

let test_milp_cutoff_improved () =
  (* a loose cutoff is beaten by the search *)
  let lp =
    build
      [ bin "a" (-3.0); bin "b" (-2.0) ]
      [ ("cap", [ (0, 1.0); (1, 1.0) ], Lp.Le, 2.0) ]
  in
  let res = Milp.solve ~cutoff:(-1.0) lp in
  Alcotest.(check bool) "optimal" true (res.outcome = Milp.Proved_optimal);
  check_float "objective" (-5.0) res.objective;
  Alcotest.(check bool) "real point" true (Array.length res.x = 2)

(* ------------------------------------------------------------------ *)
(* Parallel branch and bound                                           *)
(* ------------------------------------------------------------------ *)

let solve_jobs ?initial ?cutoff jobs lp =
  let params = Milp.make_params ~solver_jobs:jobs () in
  Milp.solve ~params ?initial ?cutoff lp

(* The solver's determinism contract: any width returns the same
   objective and outcome as the serial search (node counts and, between
   alternative optima, the witness may differ). Cross-checked against
   the exhaustive oracle so a shared bug cannot hide in the comparison. *)
let prop_parallel_matches_serial =
  QCheck.Test.make
    ~name:"parallel solve matches serial and enumeration (2 and 4 workers)"
    ~count:120
    (QCheck.make ~print:(Format.asprintf "%a" Lp.pp) random_binary_milp_gen)
    (fun lp ->
      let serial = Milp.solve lp in
      let oracle = enumerate_binary_optimum lp in
      List.for_all
        (fun jobs ->
          let res = solve_jobs jobs lp in
          match (serial.outcome, res.outcome, oracle) with
          | Milp.Proved_optimal, Milp.Proved_optimal, Some best ->
            Float.abs (res.objective -. serial.objective) <= 1e-6
            && Float.abs (res.objective -. best) <= 1e-6
            && Lp.is_integral lp res.x
            && Lp.is_feasible lp res.x
          | Milp.Infeasible, Milp.Infeasible, None -> true
          | _, _, _ -> false)
        [ 2; 4 ])

let test_milp_parallel_cutoff_fast_path () =
  (* the cutoff-only Proved_optimal contract (external optimum confirmed,
     empty witness) holds under a parallel search *)
  let lp =
    build
      [ bin "a" (-3.0); bin "b" (-2.0) ]
      [ ("cap", [ (0, 2.0); (1, 2.0) ], Lp.Le, 3.0) ]
  in
  let res = solve_jobs ~cutoff:(-3.0) 2 lp in
  Alcotest.(check bool) "optimal" true (res.outcome = Milp.Proved_optimal);
  check_float "objective" (-3.0) res.objective;
  Alcotest.(check int) "empty point" 0 (Array.length res.x);
  Alcotest.(check int) "width recorded" 2 res.workers

let test_milp_parallel_initial_incumbent () =
  (* the seeded-incumbent fast path holds under a parallel search *)
  let lp =
    build
      [ bin "a" (-10.0); bin "b" (-6.0); bin "c" (-4.0) ]
      [ ("cap", [ (0, 1.0); (1, 1.0); (2, 1.0) ], Lp.Le, 2.0) ]
  in
  let res = solve_jobs ~initial:[| 1.0; 1.0; 0.0 |] 2 lp in
  Alcotest.(check bool) "optimal" true (res.outcome = Milp.Proved_optimal);
  check_float "objective" (-16.0) res.objective

let test_milp_parallel_stats () =
  (* a forced-branching instance: serial and 4-wide runs agree on the
     optimum and report sane effort statistics *)
  let lp =
    build
      [ bin "x1" (-1.0); bin "x2" (-1.0); bin "x3" (-1.0) ]
      [ ("cap", [ (0, 2.0); (1, 2.0); (2, 2.0) ], Lp.Le, 3.0) ]
  in
  let serial = Milp.solve lp in
  Alcotest.(check int) "serial width" 1 serial.workers;
  Alcotest.(check int) "serial never steals" 0 serial.steals;
  Alcotest.(check bool) "busy time measured" true (serial.solver_busy_s >= 0.0);
  let par = solve_jobs 4 lp in
  Alcotest.(check int) "parallel width" 4 par.workers;
  Alcotest.(check bool) "both optimal" true
    (serial.outcome = Milp.Proved_optimal && par.outcome = Milp.Proved_optimal);
  check_float "same objective" serial.objective par.objective;
  check_float "known optimum" (-1.0) par.objective

(* ------------------------------------------------------------------ *)
(* LP-file regression corpus                                           *)
(* ------------------------------------------------------------------ *)

(* dune runs the suite from the workspace root or from test/; the
   fixture deps are declared relative to test/ *)
let fixture path =
  if Sys.file_exists path then path else Filename.concat "test" path

let corpus =
  [
    ("fixtures/knapsack.lp", Some (-16.0));
    ("fixtures/cover.lp", Some 2.0);
    ("fixtures/assign.lp", Some 10.0);
    ("fixtures/mixed.lp", Some (-10.0));
    ("fixtures/branchy.lp", Some (-1.0));
    ("fixtures/infeasible.lp", None);
  ]

let test_corpus_known_optima () =
  List.iter
    (fun (path, expected) ->
      match Lp_file.read_file (fixture path) with
      | Error m -> Alcotest.fail (path ^ ": " ^ m)
      | Ok lp ->
        List.iter
          (fun jobs ->
            let res = solve_jobs jobs lp in
            let label = Printf.sprintf "%s at %d worker(s)" path jobs in
            match expected with
            | Some opt ->
              Alcotest.(check bool)
                (label ^ " proved") true
                (res.outcome = Milp.Proved_optimal);
              check_float (label ^ " objective") opt res.objective;
              Alcotest.(check bool)
                (label ^ " integral feasible point") true
                (Lp.is_integral lp res.x && Lp.is_feasible lp res.x)
            | None ->
              Alcotest.(check bool)
                (label ^ " infeasible") true
                (res.outcome = Milp.Infeasible))
          [ 1; 2; 4 ])
    corpus

(* ------------------------------------------------------------------ *)
(* LP file writer                                                      *)
(* ------------------------------------------------------------------ *)

let test_lp_file_roundtrip () =
  let lp =
    build
      [
        bin "e1" 4.0;
        cont "f1" 0.0 2.0 0.0;
        ("z", neg_infinity, infinity, 1.0, Lp.Continuous);
        ("w", -3.0, 7.5, -2.0, Lp.Continuous);
      ]
      [
        ("link", [ (0, 2.0); (1, -1.0) ], Lp.Ge, 0.0);
        ("cap", [ (0, 1.0); (2, 1.0) ], Lp.Le, 5.0);
        ("fix", [ (3, 1.0) ], Lp.Eq, 2.0);
      ]
  in
  match Lp_file.of_string (Lp_file.to_string lp) with
  | Error m -> Alcotest.fail m
  | Ok lp' ->
    Alcotest.(check int) "vars" (Lp.nvars lp) (Lp.nvars lp');
    Alcotest.(check int) "rows" (Lp.nrows lp) (Lp.nrows lp');
    (* variable order may differ (the parser orders by first appearance),
       but a second round trip must be a fixed point *)
    (match Lp_file.of_string (Lp_file.to_string lp') with
    | Error m -> Alcotest.fail m
    | Ok lp'' ->
      Alcotest.(check string) "idempotent after normalisation"
        (Lp_file.to_string lp') (Lp_file.to_string lp''));
    (* and the parsed problem solves to the same optimum *)
    let r = Simplex.solve lp and r' = Simplex.solve lp' in
    Alcotest.(check bool) "same status" true (r.status = r'.status);
    if r.status = Simplex.Optimal then
      check_float "same objective" r.objective r'.objective

let test_lp_file_preserves_names () =
  let lp =
    build
      [ bin "e_0_12_0" 4.0; cont "f_0_12_0" 0.0 2.0 0.0; bin "u_1_7" 0.0 ]
      [
        ("lk2_0_12_0", [ (0, 2.0); (1, -1.0) ], Lp.Ge, 0.0);
        ("cap_12", [ (0, 1.0); (2, 1.0) ], Lp.Le, 1.0);
        ("flow_0_3", [ (1, 1.0) ], Lp.Eq, 1.0);
      ]
  in
  match Lp_file.of_string (Lp_file.to_string lp) with
  | Error m -> Alcotest.fail m
  | Ok lp' ->
    let names_of extract arr =
      List.sort compare (Array.to_list (Array.map extract arr))
    in
    Alcotest.(check (list string))
      "variable names survive"
      (names_of (fun (v : Lp.var) -> v.Lp.v_name) lp.Lp.vars)
      (names_of (fun (v : Lp.var) -> v.Lp.v_name) lp'.Lp.vars);
    Alcotest.(check (list string))
      "row names survive"
      (names_of (fun (r : Lp.row) -> r.Lp.r_name) lp.Lp.rows)
      (names_of (fun (r : Lp.row) -> r.Lp.r_name) lp'.Lp.rows)

let test_lp_file_parse_maximize () =
  let text =
    "Maximize\n obj: 3 x + 2 y\nSubject To\n c1: x + y <= 4\nBounds\n      0 <= x <= 3\n 0 <= y <= 3\nEnd\n"
  in
  match Lp_file.of_string text with
  | Error m -> Alcotest.fail m
  | Ok lp ->
    let r = Simplex.solve lp in
    (* max 3x + 2y == -min(-3x - 2y) = 11 at (3, 1) *)
    check_float "objective (negated)" (-11.0) r.objective

let test_lp_file_parse_errors () =
  List.iter
    (fun (label, text) ->
      Alcotest.(check bool) label true
        (Result.is_error (Lp_file.of_string text)))
    [
      ("garbage outside sections", "hello world\n");
      ("row without relation", "Minimize\n obj: x\nSubject To\n r: x 4\nEnd\n");
      ("bad bounds", "Minimize\n obj: x\nBounds\n x banana 3\nEnd\n");
    ]

(* float_of_string would happily accept all of these; the parser must
   not, and must say which line is at fault. *)
let test_lp_file_rejects_non_finite () =
  let expect_error_with label ~substring text =
    match Lp_file.of_string text with
    | Ok _ -> Alcotest.failf "%s: parsed a non-finite literal" label
    | Error msg ->
      let has sub =
        let ls = String.length msg and l = String.length sub in
        let rec go i = i + l <= ls && (String.sub msg i l = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: error %S mentions %S" label msg substring)
        true (has substring)
  in
  expect_error_with "nan objective coefficient" ~substring:"line 2"
    "Minimize\n obj: nan x\nSubject To\n c: x >= 1\nEnd\n";
  expect_error_with "nan rhs" ~substring:"line 4"
    "Minimize\n obj: x\nSubject To\n c: x >= nan\nEnd\n";
  expect_error_with "inf rhs" ~substring:"line 4"
    "Minimize\n obj: x\nSubject To\n c: x >= inf\nEnd\n";
  expect_error_with "hex float coefficient" ~substring:"hex"
    "Minimize\n obj: 0x1p4 x\nSubject To\n c: x >= 1\nEnd\n";
  expect_error_with "nan bound" ~substring:"line 6"
    "Minimize\n obj: x + y\nSubject To\n c1: x + y >= 1\nBounds\n 0 <= x <= nan\nEnd\n"

let test_lp_file_nan_bound_fixture () =
  match Lp_file.read_file (fixture "fixtures/nan_bound.lp") with
  | Ok _ -> Alcotest.fail "nan_bound.lp must be rejected"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names line 6" msg)
      true
      (String.length msg >= 6 && String.sub msg 0 6 = "line 6")

let test_lp_file_output () =
  let lp =
    build
      [ bin "e_1" 1.0; cont "f_1" 0.0 2.0 0.0 ]
      [ ("link", [ (0, 2.0); (1, -1.0) ], Lp.Ge, 0.0) ]
  in
  let s = Lp_file.to_string lp in
  let has sub =
    let len_s = String.length s and len = String.length sub in
    let rec go i = i + len <= len_s && (String.sub s i len = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "Minimize" true (has "Minimize");
  Alcotest.(check bool) "Subject To" true (has "Subject To");
  Alcotest.(check bool) "Bounds" true (has "Bounds");
  Alcotest.(check bool) "General section" true (has "General");
  Alcotest.(check bool) "row" true (has "link:")

let test_simplex_deadline () =
  (* an already-expired deadline aborts before any pivoting *)
  let lp =
    build
      [ cont "x" 0.0 100.0 (-1.0); cont "y" 0.0 100.0 (-2.0) ]
      [ ("cap", [ (0, 1.0); (1, 1.0) ], Lp.Le, 50.0) ]
  in
  let inst = Simplex.Instance.create lp in
  match
    Simplex.Instance.solve
      ~params:(Simplex.make_params ~deadline_s:(Sys.time () -. 1.0) ())
      inst
  with
  | _ -> Alcotest.fail "expected Numerical_failure"
  | exception Simplex.Numerical_failure _ -> ()

let test_verify_optimal_rejects_bogus () =
  let lp =
    build [ cont "x" 0.0 3.0 (-1.0) ] [ ("cap", [ (0, 1.0) ], Lp.Le, 2.0) ]
  in
  let res = Simplex.solve lp in
  Alcotest.(check bool) "genuine result verifies" true
    (Result.is_ok (Simplex.verify_optimal lp res));
  (* tamper with the primal point: x below its optimal value *)
  let tampered = { res with Simplex.x = [| 0.5 |] } in
  Alcotest.(check bool) "tampered result rejected" true
    (Result.is_error (Simplex.verify_optimal lp tampered));
  (* tamper with feasibility *)
  let infeasible = { res with Simplex.x = [| 9.0 |] } in
  Alcotest.(check bool) "infeasible point rejected" true
    (Result.is_error (Simplex.verify_optimal lp infeasible))

(* A transportation-style LP: 3 sources (supply 10/20/30), 3 sinks
   (demand 15/25/20), unit costs i*j+1. Big enough to pivot repeatedly,
   so it also exercises the refactorisation policy. *)
let transportation_lp () =
  let b = Lp.Builder.create () in
  let x = Array.make_matrix 3 3 0 in
  for i = 0 to 2 do
    for j = 0 to 2 do
      x.(i).(j) <-
        Lp.Builder.add_var b
          ~name:(Printf.sprintf "x%d%d" i j)
          ~lower:0.0 ~upper:60.0
          ~obj:(float_of_int ((i * j) + 1))
          Lp.Continuous
    done
  done;
  let supply = [| 10.0; 20.0; 30.0 |] and demand = [| 15.0; 25.0; 20.0 |] in
  for i = 0 to 2 do
    Lp.Builder.add_row b
      ~name:(Printf.sprintf "s%d" i)
      (List.init 3 (fun j -> (x.(i).(j), 1.0)))
      Lp.Le supply.(i)
  done;
  for j = 0 to 2 do
    Lp.Builder.add_row b
      ~name:(Printf.sprintf "d%d" j)
      (List.init 3 (fun i -> (x.(i).(j), 1.0)))
      Lp.Ge demand.(j)
  done;
  Lp.Builder.finish b

let test_simplex_bigger_structured () =
  let lp = transportation_lp () in
  let res = solve_optimal lp in
  (* row 0 costs 1 everywhere; rows 1/2 prefer low-j columns. A known
     optimal assignment costs 10*1 + (5+15)*1|2... verify against the
     dense oracle instead of hand-arithmetic. *)
  match Dense.solve lp with
  | Dense.Optimal (obj, _) -> check_float "matches oracle" obj res.objective
  | Dense.Infeasible | Dense.Unbounded -> Alcotest.fail "oracle disagrees"

let test_simplex_refactor_policies () =
  (* Aggressive refactorisation policies (every pivot; on any eta fill;
     on any FTRAN residual) must not change the optimum — they only
     trade pivot speed for numerical freshness. *)
  let lp = transportation_lp () in
  let reference = Simplex.solve lp in
  List.iter
    (fun (label, refactor) ->
      let r = Simplex.solve ~params:(Simplex.make_params ~refactor ()) lp in
      Alcotest.(check bool) (label ^ " optimal") true (r.status = Simplex.Optimal);
      check_float (label ^ " objective") reference.objective r.objective)
    [
      ("every pivot", { Simplex.default_refactor with Simplex.interval = 1 });
      ("fill trigger", { Simplex.default_refactor with Simplex.fill_factor = 0.0 });
      ( "residual trigger",
        { Simplex.default_refactor with Simplex.residual_tol = 0.0 } )
    ]

let test_simplex_warm_dual_btran_saved () =
  (* Tightening a basic variable's bound makes the warm re-solve run the
     dual simplex; every dual pivot reuses the ratio-test BTRAN instead
     of recomputing the duals, and reports the saving. *)
  let lp =
    build
      [ cont "x" 0.0 3.0 (-1.0); cont "y" 0.0 3.0 (-2.0) ]
      [ ("cap", [ (0, 1.0); (1, 1.0) ], Lp.Le, 4.0) ]
  in
  let inst = Simplex.Instance.create lp in
  let r1 = Simplex.Instance.solve inst in
  check_float "cold optimum" (-7.0) r1.objective;
  (* x is basic at 1; capping it at 0.5 forces a dual pivot *)
  let r2 =
    Simplex.Instance.solve
      ~params:
        (Simplex.make_params ~basis:r1.basis ~lower:[| 0.0; 0.0 |]
           ~upper:[| 0.5; 3.0 |] ())
      inst
  in
  Alcotest.(check bool) "optimal" true (r2.status = Simplex.Optimal);
  check_float "warm optimum" (-6.5) r2.objective;
  Alcotest.(check bool)
    "dual pivots saved a BTRAN each" true (r2.btran_saved >= 1)

(* ------------------------------------------------------------------ *)
(* Pricing, bound flips and name-keyed basis warm starts               *)
(* ------------------------------------------------------------------ *)

(* The LP relaxation of every fixture MILP: same verdict and objective as
   the dense oracle, and optima pass the independent certificate check. *)
let test_corpus_relaxations () =
  List.iter
    (fun (path, _) ->
      match Lp_file.read_file (fixture path) with
      | Error m -> Alcotest.fail (path ^ ": " ^ m)
      | Ok lp -> (
        let res = Simplex.solve lp in
        match (res.Simplex.status, Dense.solve lp) with
        | Simplex.Optimal, Dense.Optimal (obj, _) ->
          check_float (path ^ " oracle objective") obj res.Simplex.objective;
          Alcotest.(check bool)
            (path ^ " certificate") true
            (Result.is_ok (Simplex.verify_optimal lp res))
        | Simplex.Infeasible, Dense.Infeasible -> ()
        | _, _ -> Alcotest.fail (path ^ ": verdict differs from the oracle")))
    corpus

(* The wirelength LP of the quickstart clip under RULEk (N28-12T). *)
let quickstart_lp k =
  let clip =
    match Clipfile.read_file (fixture "../data/samples.clips") with
    | Error e -> Alcotest.failf "samples.clips: %s" e
    | Ok clips -> List.find (fun c -> c.Clip.c_name = "quickstart") clips
  in
  let rules = Rules.rule k in
  Formulate.lp
    (Formulate.build ~rules (Graph.build ~tech:Tech.n28_12t ~rules clip))

(* The quickstart clip's wirelength roots under N28-12T stall long enough
   to fall back to Bland's rule: once (from iteration 649) under RULE1,
   four times under RULE4. Any change to the fallback's entering choice
   therefore shows in these pivot counts. Objectives are pinned bit for
   bit. *)
let test_bland_fallback_roots () =
  List.iter
    (fun (k, iterations, flips, objective) ->
      let res = Simplex.solve (quickstart_lp k) in
      let label = Printf.sprintf "quickstart RULE%d" k in
      Alcotest.(check bool)
        (label ^ " optimal") true
        (res.Simplex.status = Simplex.Optimal);
      Alcotest.(check int) (label ^ " iterations") iterations
        res.Simplex.iterations;
      Alcotest.(check int) (label ^ " bound flips") flips res.Simplex.bound_flips;
      Alcotest.(check string)
        (label ^ " objective") objective
        (Printf.sprintf "%h" res.Simplex.objective))
    [ (1, 1436, 0, "0x1.18p+5"); (4, 6330, 21, "0x1.18p+5") ]

(* The quickstart clip's RULE1 optimal basis, remapped by name onto the
   RULE2, RULE3, RULE4, RULE6, RULE12 and RULE13 encodings (N28-12T), as
   the sweep's warm roots do. Intake refactorisation of each remapped
   basis decides the pivots that follow, so any change to column placement
   or to the dual method shows here: every root keeps its basis, RULE2,
   RULE3 and RULE13 pass bound-flip breakpoints in the long-step ratio
   test, and RULE6 ends on a certified dual ray. Objectives are pinned bit
   for bit (RULE6's is the infeasible basis's value). *)
let test_warm_root_pins () =
  let lp1 = quickstart_lp 1 in
  let assoc = Simplex.Basis.to_assoc lp1 (Simplex.solve lp1).Simplex.basis in
  let warm_name = function
    | `Cold -> "cold"
    | `Reused -> "reused"
    | `Repaired -> "repaired"
    | `Abandoned -> "abandoned"
  in
  List.iter
    (fun (k, status, iterations, flips, warm, objective) ->
      let lp = quickstart_lp k in
      let basis, _ = Simplex.Basis.of_assoc lp assoc in
      let res =
        Simplex.Instance.solve
          ~params:(Simplex.make_params ~basis ())
          (Simplex.Instance.create lp)
      in
      let label = Printf.sprintf "quickstart warm RULE%d" k in
      Alcotest.(check bool) (label ^ " status") true (res.Simplex.status = status);
      Alcotest.(check int) (label ^ " iterations") iterations
        res.Simplex.iterations;
      Alcotest.(check int) (label ^ " bound flips") flips res.Simplex.bound_flips;
      Alcotest.(check string) (label ^ " warm") warm (warm_name res.Simplex.warm);
      Alcotest.(check string)
        (label ^ " objective") objective
        (Printf.sprintf "%h" res.Simplex.objective))
    [
      (2, Simplex.Optimal, 55, 5, "reused", "0x1.1cp+5");
      (3, Simplex.Optimal, 42, 4, "reused", "0x1.1cp+5");
      (4, Simplex.Optimal, 4, 0, "reused", "0x1.18p+5");
      (6, Simplex.Infeasible, 10, 0, "reused", "0x1.1cp+5");
      (12, Simplex.Optimal, 15, 0, "reused", "0x1.18p+5");
      (13, Simplex.Optimal, 64, 1, "reused", "0x1.1cp+5");
    ]

let test_simplex_bound_flip () =
  (* min -x1 - x2 s.t. x1 + x2 <= 10, x in [0,1]^2: the ratio test is
     bound-limited on every entering variable, so each step flips it to
     its opposite bound without touching the basis (no eta, no FTRAN). *)
  let lp =
    build
      [ cont "x1" 0.0 1.0 (-1.0); cont "x2" 0.0 1.0 (-1.0) ]
      [ ("cap", [ (0, 1.0); (1, 1.0) ], Lp.Le, 10.0) ]
  in
  let r = Simplex.solve lp in
  Alcotest.(check bool) "optimal" true (r.Simplex.status = Simplex.Optimal);
  check_float "objective" (-2.0) r.Simplex.objective;
  Alcotest.(check bool) "bound flips taken" true (r.Simplex.bound_flips >= 1);
  Alcotest.(check bool)
    "certificate" true
    (Result.is_ok (Simplex.verify_optimal lp r))

let test_basis_assoc_roundtrip () =
  let lp = transportation_lp () in
  let r = Simplex.solve lp in
  let assoc = Simplex.Basis.to_assoc lp r.Simplex.basis in
  let b, fixup = Simplex.Basis.of_assoc lp assoc in
  Alcotest.(check bool) "exact remap" true (fixup = `Exact);
  let r2 =
    Simplex.Instance.solve
      ~params:(Simplex.make_params ~basis:b ())
      (Simplex.Instance.create lp)
  in
  check_float "same objective" r.Simplex.objective r2.Simplex.objective;
  Alcotest.(check bool)
    "warm start reported" true
    (match r2.Simplex.warm with
    | `Reused | `Repaired -> true
    | `Cold | `Abandoned -> false)

let test_basis_text_roundtrip () =
  let lp = transportation_lp () in
  let r = Simplex.solve lp in
  let text = Simplex.Basis.to_string lp r.Simplex.basis in
  match Simplex.Basis.of_string lp text with
  | Error m -> Alcotest.fail m
  | Ok (b, fixup) ->
    Alcotest.(check bool) "exact round trip" true (fixup = `Exact);
    Alcotest.(check bool)
      "statuses preserved" true
      (Simplex.Basis.to_assoc lp r.Simplex.basis = Simplex.Basis.to_assoc lp b)

let test_basis_of_string_rejects_garbage () =
  let lp = transportation_lp () in
  match Simplex.Basis.of_string lp "# optrouter basis v1\nv nope\n" with
  | Ok _ -> Alcotest.fail "accepted malformed basis line"
  | Error _ -> ()

let test_basis_cross_lp_remap () =
  (* The RULE1-to-RULEk scenario in miniature: warm-start a structurally
     different LP that shares names with the solved one but adds a
     variable and a row. The remap must report Patched, and the warm
     solve must still land on the new LP's own certified optimum. *)
  let lp1 =
    build
      [ cont "x" 0.0 3.0 (-1.0); cont "y" 0.0 3.0 (-2.0) ]
      [ ("cap", [ (0, 1.0); (1, 1.0) ], Lp.Le, 4.0) ]
  in
  let r1 = Simplex.solve lp1 in
  let assoc = Simplex.Basis.to_assoc lp1 r1.Simplex.basis in
  let lp2 =
    build
      [
        cont "x" 0.0 3.0 (-1.0);
        cont "y" 0.0 3.0 (-2.0);
        cont "z" 0.0 2.0 (-4.0);
      ]
      [
        ("cap", [ (0, 1.0); (1, 1.0); (2, 1.0) ], Lp.Le, 4.0);
        ("zcap", [ (2, 1.0) ], Lp.Le, 1.0);
      ]
  in
  let b, fixup = Simplex.Basis.of_assoc lp2 assoc in
  Alcotest.(check bool) "patched remap" true (fixup = `Patched);
  let warm =
    Simplex.Instance.solve
      ~params:(Simplex.make_params ~basis:b ())
      (Simplex.Instance.create lp2)
  in
  let cold = Simplex.solve lp2 in
  Alcotest.(check bool) "optimal" true (warm.Simplex.status = Simplex.Optimal);
  check_float "matches cold solve" cold.Simplex.objective
    warm.Simplex.objective;
  Alcotest.(check bool)
    "certificate" true
    (Result.is_ok (Simplex.verify_optimal lp2 warm))

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ilp"
    [
      ( "builder",
        [
          Alcotest.test_case "merges duplicate coefficients" `Quick
            test_builder_merges_duplicates;
          Alcotest.test_case "drops cancelled coefficients" `Quick
            test_builder_drops_zero;
          Alcotest.test_case "full cancellation keeps an empty row" `Quick
            test_builder_cancels_to_empty;
          Alcotest.test_case "rejects inverted bounds" `Quick
            test_builder_rejects_bad_bounds;
          Alcotest.test_case "rejects bad variable index" `Quick
            test_builder_rejects_bad_index;
          Alcotest.test_case "feasibility helpers" `Quick test_feasibility_helpers;
          qtest prop_builder_matches_oracle;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "two-variable LP" `Quick test_simplex_2var;
          Alcotest.test_case "equality row" `Quick test_simplex_equality;
          Alcotest.test_case "infeasible bounds" `Quick test_simplex_infeasible;
          Alcotest.test_case "infeasible equalities" `Quick
            test_simplex_infeasible_eq_pair;
          Alcotest.test_case "unbounded ray" `Quick test_simplex_unbounded;
          Alcotest.test_case "bounds only" `Quick test_simplex_bounds_only;
          Alcotest.test_case "negative lower bounds" `Quick
            test_simplex_negative_lower;
          Alcotest.test_case "free variable" `Quick test_simplex_free_variable;
          Alcotest.test_case "degenerate constraints" `Quick
            test_simplex_degenerate;
          Alcotest.test_case "warm start" `Quick test_simplex_warm_start;
          Alcotest.test_case "warm start keeps a primal-feasible basis" `Quick
            test_simplex_warm_start_primal_feasible;
          Alcotest.test_case
            "warm start abandons a dual-infeasible basis that is primal \
             infeasible"
            `Quick test_simplex_warm_start_abandoned;
          Alcotest.test_case "warm start with changed bounds" `Quick
            test_simplex_warm_start_changed_bounds;
          Alcotest.test_case "warm long step with an exact payoff" `Quick
            test_simplex_warm_exact_payoff;
          Alcotest.test_case ">= rows" `Quick test_simplex_ge_rows;
          Alcotest.test_case "fixed variable" `Quick test_simplex_fixed_variable;
          Alcotest.test_case "empty LP" `Quick test_simplex_empty_lp;
        ] );
      ( "simplex-extra",
        [
          Alcotest.test_case "deadline aborts" `Quick test_simplex_deadline;
          Alcotest.test_case "verify_optimal rejects tampering" `Quick
            test_verify_optimal_rejects_bogus;
          Alcotest.test_case "transportation LP" `Quick
            test_simplex_bigger_structured;
          Alcotest.test_case "aggressive refactor policies" `Quick
            test_simplex_refactor_policies;
          Alcotest.test_case "warm dual re-solve saves BTRANs" `Quick
            test_simplex_warm_dual_btran_saved;
        ] );
      ( "simplex-properties",
        [
          qtest prop_simplex_matches_dense;
          qtest prop_simplex_certificate;
          qtest prop_feasible_lp_solved;
          qtest prop_refactor_repairs_warm_bases;
          qtest prop_branch_resolves_match_dense;
        ] );
      ( "simplex-pricing",
        [
          Alcotest.test_case "fixture relaxations match the oracle" `Quick
            test_corpus_relaxations;
          Alcotest.test_case "Bland fallback pins quickstart roots" `Quick
            test_bland_fallback_roots;
          Alcotest.test_case "warm-root pins for remapped quickstart bases" `Quick
            test_warm_root_pins;
          Alcotest.test_case "bound-flip ratio test" `Quick
            test_simplex_bound_flip;
          Alcotest.test_case "basis assoc round trip" `Quick
            test_basis_assoc_roundtrip;
          Alcotest.test_case "basis textual round trip" `Quick
            test_basis_text_roundtrip;
          Alcotest.test_case "basis parser rejects garbage" `Quick
            test_basis_of_string_rejects_garbage;
          Alcotest.test_case "cross-LP basis remap warm start" `Quick
            test_basis_cross_lp_remap;
          Alcotest.test_case "crash basis of a point" `Quick test_basis_of_point;
        ] );
      ( "milp",
        [
          Alcotest.test_case "knapsack" `Quick test_milp_knapsack;
          Alcotest.test_case "branching required" `Quick
            test_milp_forces_branching;
          Alcotest.test_case "infeasible" `Quick test_milp_infeasible;
          Alcotest.test_case "fractional equality" `Quick
            test_milp_integrality_gap_only_in_lp;
          Alcotest.test_case "lone fixed integer" `Quick test_milp_fixed_integer;
          Alcotest.test_case "mixed integer/continuous" `Quick test_milp_mixed;
          Alcotest.test_case "most_fractional basics" `Quick
            test_most_fractional_basic;
          Alcotest.test_case "most_fractional objective weighting" `Quick
            test_most_fractional_objective_weighting;
          Alcotest.test_case "most_fractional huge values" `Quick
            test_most_fractional_huge_values;
          Alcotest.test_case "node limit" `Quick test_milp_node_limit;
          Alcotest.test_case "initial incumbent" `Quick test_milp_initial_incumbent;
          Alcotest.test_case "invalid initial ignored" `Quick
            test_milp_initial_invalid_ignored;
          Alcotest.test_case "initial point crashes the root" `Quick
            test_milp_initial_crash_root;
          Alcotest.test_case "cutoff confirms external optimum" `Quick
            test_milp_cutoff_confirms_external_optimum;
          Alcotest.test_case "cutoff improved by search" `Quick
            test_milp_cutoff_improved;
        ] );
      ("milp-properties", [ qtest prop_milp_matches_enumeration ]);
      ( "milp-parallel",
        [
          Alcotest.test_case "cutoff fast path at width 2" `Quick
            test_milp_parallel_cutoff_fast_path;
          Alcotest.test_case "initial incumbent at width 2" `Quick
            test_milp_parallel_initial_incumbent;
          Alcotest.test_case "stats and identity at width 4" `Quick
            test_milp_parallel_stats;
          qtest prop_parallel_matches_serial;
        ] );
      ( "lp-corpus",
        [
          Alcotest.test_case "fixture MILPs prove known optima at widths 1/2/4"
            `Quick test_corpus_known_optima;
        ] );
      ( "lp-file",
        [
          Alcotest.test_case "sections present" `Quick test_lp_file_output;
          Alcotest.test_case "round trip" `Quick test_lp_file_roundtrip;
          Alcotest.test_case "round trip preserves names" `Quick
            test_lp_file_preserves_names;
          Alcotest.test_case "maximize parsed" `Quick test_lp_file_parse_maximize;
          Alcotest.test_case "parse errors" `Quick test_lp_file_parse_errors;
          Alcotest.test_case "rejects nan/inf/hex literals with line numbers"
            `Quick test_lp_file_rejects_non_finite;
          Alcotest.test_case "nan-bound fixture rejected" `Quick
            test_lp_file_nan_bound_fixture;
        ] );
    ]
