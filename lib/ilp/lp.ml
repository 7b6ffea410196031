type sense = Le | Ge | Eq
type kind = Continuous | Integer

type var = {
  v_name : string;
  lower : float;
  upper : float;
  obj : float;
  kind : kind;
}

type row = {
  r_name : string;
  sense : sense;
  rhs : float;
  coeffs : (int * float) array;
}

type t = { vars : var array; rows : row array }

let nvars t = Array.length t.vars
let nrows t = Array.length t.rows

let nnz t =
  Array.fold_left (fun acc r -> acc + Array.length r.coeffs) 0 t.rows

let row_activity _t row x =
  Array.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0.0 row.coeffs

let objective_value t x =
  let acc = ref 0.0 in
  Array.iteri (fun j v -> acc := !acc +. (v.obj *. x.(j))) t.vars;
  !acc

let is_feasible ?(tol = 1e-6) t x =
  let bounds_ok =
    Array.for_all
      (fun j -> x.(j) >= t.vars.(j).lower -. tol && x.(j) <= t.vars.(j).upper +. tol)
      (Array.init (nvars t) Fun.id)
  in
  let row_ok r =
    let a = row_activity t r x in
    match r.sense with
    | Le -> a <= r.rhs +. tol
    | Ge -> a >= r.rhs -. tol
    | Eq -> Float.abs (a -. r.rhs) <= tol
  in
  bounds_ok && Array.for_all row_ok t.rows

let is_integral ?(tol = 1e-6) t x =
  let ok j v =
    match v.kind with
    | Continuous -> true
    | Integer -> Float.abs (x.(j) -. Float.round x.(j)) <= tol
  in
  let result = ref true in
  Array.iteri (fun j v -> if not (ok j v) then result := false) t.vars;
  !result

let pp_sense ppf = function
  | Le -> Format.pp_print_string ppf "<="
  | Ge -> Format.pp_print_string ppf ">="
  | Eq -> Format.pp_print_string ppf "="

let pp ppf t =
  Format.fprintf ppf "@[<v>minimize";
  Array.iteri
    (fun j v ->
      if v.obj <> 0.0 then Format.fprintf ppf "@ %+g %s" v.obj v.v_name;
      ignore j)
    t.vars;
  Format.fprintf ppf "@ subject to";
  Array.iter
    (fun r ->
      Format.fprintf ppf "@ %s:" r.r_name;
      Array.iter
        (fun (j, a) -> Format.fprintf ppf " %+g %s" a t.vars.(j).v_name)
        r.coeffs;
      Format.fprintf ppf " %a %g" pp_sense r.sense r.rhs)
    t.rows;
  Format.fprintf ppf "@]"

module Builder = struct
  type t = {
    mutable bvars : var list;
    mutable nv : int;
    mutable brows : row list;
  }

  let create () = { bvars = []; nv = 0; brows = [] }

  let add_var b ~name ~lower ~upper ~obj kind =
    if lower > upper then
      invalid_arg
        (Printf.sprintf "Lp.Builder.add_var %s: lower %g > upper %g" name lower
           upper);
    let v = { v_name = name; lower; upper; obj; kind } in
    b.bvars <- v :: b.bvars;
    let j = b.nv in
    b.nv <- j + 1;
    j

  let add_binary b ~name ~obj =
    add_var b ~name ~lower:0.0 ~upper:1.0 ~obj Integer

  (* Sum duplicate indices and drop exact zeros, so downstream solvers can
     rely on clean sparse rows. A stable sort by index keeps each index's
     terms in list order, and each index sums them from 0.0. *)
  let normalize_coeffs nv name coeffs =
    let a = Array.of_list coeffs in
    Array.iter
      (fun (j, _) ->
        if j < 0 || j >= nv then
          invalid_arg
            (Printf.sprintf "Lp.Builder.add_row %s: variable index %d out of range"
               name j))
      a;
    let len = Array.length a in
    if len <= 16 then
      for i = 1 to len - 1 do
        let ((j, _) as x) = a.(i) in
        let k = ref (i - 1) in
        while !k >= 0 && fst a.(!k) > j do
          a.(!k + 1) <- a.(!k);
          decr k
        done;
        a.(!k + 1) <- x
      done
    else Array.stable_sort (fun (j1, _) (j2, _) -> Int.compare j1 j2) a;
    let out = ref 0 and i = ref 0 in
    while !i < len do
      let j = fst a.(!i) in
      let sum = ref 0.0 in
      while !i < len && fst a.(!i) = j do
        sum := !sum +. snd a.(!i);
        incr i
      done;
      if !sum <> 0.0 then begin
        a.(!out) <- (j, !sum);
        incr out
      end
    done;
    if !out = len then a else Array.sub a 0 !out

  let add_row b ~name coeffs sense rhs =
    let coeffs = normalize_coeffs b.nv name coeffs in
    b.brows <- { r_name = name; sense; rhs; coeffs } :: b.brows

  let finish b =
    {
      vars = Array.of_list (List.rev b.bvars);
      rows = Array.of_list (List.rev b.brows);
    }
end
