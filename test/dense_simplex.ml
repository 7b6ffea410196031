module Lp = Optrouter_ilp.Lp

type status = Optimal of float * float array | Infeasible | Unbounded

(* Standard-form conversion: shift x := l + x' with x' >= 0, emit upper
   bounds as explicit rows, make every rhs nonnegative, add a slack per Le
   row, a surplus per Ge row, and a Big-M artificial for Ge/Eq rows. *)
let solve (lp : Lp.t) =
  let n = Lp.nvars lp in
  Array.iter
    (fun (v : Lp.var) ->
      if v.lower = neg_infinity || v.upper = infinity then
        invalid_arg "Dense_simplex.solve: variable bounds must be finite")
    lp.vars;
  let shift = Array.map (fun (v : Lp.var) -> v.lower) lp.vars in
  (* Collect rows as (dense coeffs, sense, rhs) with rhs adjusted by the
     shift; append the upper-bound rows. *)
  let rows = ref [] in
  Array.iter
    (fun (row : Lp.row) ->
      let dense = Array.make n 0.0 in
      Array.iter (fun (j, a) -> dense.(j) <- a) row.coeffs;
      let adj =
        Array.fold_left ( +. ) 0.0
          (Array.mapi (fun j a -> a *. shift.(j)) dense)
      in
      rows := (dense, row.sense, row.rhs -. adj) :: !rows)
    lp.rows;
  Array.iteri
    (fun j (v : Lp.var) ->
      let dense = Array.make n 0.0 in
      dense.(j) <- 1.0;
      rows := (dense, Lp.Le, v.upper -. v.lower) :: !rows)
    lp.vars;
  let rows = Array.of_list (List.rev !rows) in
  let m = Array.length rows in
  (* Normalise senses so every rhs is >= 0. *)
  let rows =
    Array.map
      (fun (dense, sense, rhs) ->
        if rhs >= 0.0 then (dense, sense, rhs)
        else
          let flipped =
            match sense with Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le | Lp.Eq -> Lp.Eq
          in
          (Array.map (fun a -> -.a) dense, flipped, -.rhs))
      rows
  in
  let n_slack =
    Array.fold_left
      (fun acc (_, sense, _) ->
        match sense with Lp.Le | Lp.Ge -> acc + 1 | Lp.Eq -> acc)
      0 rows
  in
  let n_art =
    Array.fold_left
      (fun acc (_, sense, _) ->
        match sense with Lp.Ge | Lp.Eq -> acc + 1 | Lp.Le -> acc)
      0 rows
  in
  let total = n + n_slack + n_art in
  let tab = Array.make_matrix m (total + 1) 0.0 in
  let basis = Array.make m 0 in
  let max_abs_cost =
    Array.fold_left (fun acc (v : Lp.var) -> Float.max acc (Float.abs v.obj)) 1.0
      lp.vars
  in
  let big_m = 1e6 *. max_abs_cost in
  let cost = Array.make total 0.0 in
  Array.iteri (fun j (v : Lp.var) -> cost.(j) <- v.obj) lp.vars;
  let slack_at = ref n and art_at = ref (n + n_slack) in
  Array.iteri
    (fun i (dense, sense, rhs) ->
      Array.blit dense 0 tab.(i) 0 n;
      tab.(i).(total) <- rhs;
      (match sense with
      | Lp.Le ->
        tab.(i).(!slack_at) <- 1.0;
        basis.(i) <- !slack_at;
        incr slack_at
      | Lp.Ge ->
        tab.(i).(!slack_at) <- -1.0;
        incr slack_at;
        tab.(i).(!art_at) <- 1.0;
        cost.(!art_at) <- big_m;
        basis.(i) <- !art_at;
        incr art_at
      | Lp.Eq ->
        tab.(i).(!art_at) <- 1.0;
        cost.(!art_at) <- big_m;
        basis.(i) <- !art_at;
        incr art_at);
      ignore sense)
    rows;
  (* Reduced cost row: z_j - c_j maintained explicitly. *)
  let zrow = Array.make (total + 1) 0.0 in
  let recompute_zrow () =
    for j = 0 to total do
      let acc = ref 0.0 in
      for i = 0 to m - 1 do
        acc := !acc +. (cost.(basis.(i)) *. tab.(i).(j))
      done;
      zrow.(j) <- !acc -. (if j < total then cost.(j) else 0.0)
    done
  in
  recompute_zrow ();
  let tol = 1e-7 in
  let rec iterate count bland =
    if count > 20_000 then Unbounded (* cycling safeguard; unreachable in tests *)
    else begin
      let entering = ref (-1) in
      (if bland then begin
         (try
            for j = 0 to total - 1 do
              if zrow.(j) > tol then begin
                entering := j;
                raise Exit
              end
            done
          with Exit -> ())
       end
       else begin
         let best = ref tol in
         for j = 0 to total - 1 do
           if zrow.(j) > !best then begin
             best := zrow.(j);
             entering := j
           end
         done
       end);
      if !entering < 0 then begin
        (* Optimal tableau; check artificials. *)
        let art_active = ref false in
        for i = 0 to m - 1 do
          if basis.(i) >= n + n_slack && tab.(i).(total) > 1e-6 then
            art_active := true
        done;
        if !art_active then Infeasible
        else begin
          let x = Array.copy shift in
          for i = 0 to m - 1 do
            if basis.(i) < n then x.(basis.(i)) <- x.(basis.(i)) +. tab.(i).(total)
          done;
          Optimal (Lp.objective_value lp x, x)
        end
      end
      else begin
        let q = !entering in
        let leave = ref (-1) and best_ratio = ref infinity in
        for i = 0 to m - 1 do
          if tab.(i).(q) > tol then begin
            let ratio = tab.(i).(total) /. tab.(i).(q) in
            if
              ratio < !best_ratio -. 1e-12
              || (ratio < !best_ratio +. 1e-12
                 && !leave >= 0
                 && basis.(i) < basis.(!leave))
            then begin
              best_ratio := ratio;
              leave := i
            end
          end
        done;
        if !leave < 0 then Unbounded
        else begin
          let r = !leave in
          let piv = tab.(r).(q) in
          for j = 0 to total do
            tab.(r).(j) <- tab.(r).(j) /. piv
          done;
          for i = 0 to m - 1 do
            if i <> r && tab.(i).(q) <> 0.0 then begin
              let f = tab.(i).(q) in
              for j = 0 to total do
                tab.(i).(j) <- tab.(i).(j) -. (f *. tab.(r).(j))
              done
            end
          done;
          let f = zrow.(q) in
          for j = 0 to total do
            zrow.(j) <- zrow.(j) -. (f *. tab.(r).(j))
          done;
          basis.(r) <- q;
          iterate (count + 1) (count > 5_000)
        end
      end
    end
  in
  iterate 0 false
