module Log = Optrouter_report.Report.Log

type vstat = Basic | At_lower | At_upper | Nb_free
type basis = { vstat : vstat array; basic : int array }
type status = Optimal | Infeasible | Unbounded

type warm = [ `Cold | `Reused | `Repaired | `Abandoned ]

type result = {
  status : status;
  objective : float;
  x : float array;
  duals : float array;
  basis : basis;
  iterations : int;
  bound_flips : int;
      (** nonbasic columns moved to their opposite bound without a basis
          change: primal ratio-test steps limited by the entering
          variable's own range, and the columns a dual long step passes *)
  warm : warm;
      (** how the starting basis was used: [`Cold] (none supplied),
          [`Reused] (factorised as given), [`Repaired] (factorised after
          substituting slacks for singular columns) or [`Abandoned]
          (thrown away for a restart from the all-slack basis) *)
  btran_saved : int;
      (** full BTRAN passes avoided by the incremental dual update in
          [dual_reoptimize] *)
}

exception Numerical_failure of string

let dual_tol = 1e-9
let feas_tol = 1e-7
let zero_tol = 1e-12
let pivot_tol = 1e-8

(* Refactorisation policy. The pivot interval is the classic hard cap; the
   two adaptive triggers refactor *early* when the eta file degrades before
   the interval is up: [fill_factor] bounds eta-file fill (nonzeros per
   row) relative to a fresh factorisation, and [residual_tol] bounds the
   drift of the factorised representation, measured as the relative
   infinity-norm residual of [B x_B + N x_N = rhs]. Routing bases are
   extremely sparse, so a dense eta file or a drifting residual is always
   accumulated round-off, never genuine structure. *)
type refactor_params = {
  interval : int;
  fill_factor : float;
  residual_tol : float;
}

let default_refactor = { interval = 128; fill_factor = 16.0; residual_tol = 1e-7 }

(* Pivots after which a solve gives up with [Numerical_failure]. *)
let max_iters = 200_000

module Params = struct
  type t = {
    basis : basis option;
    lower : float array option;
    upper : float array option;
    deadline_s : float option;
    refactor : refactor_params;
  }

  let default =
    {
      basis = None;
      lower = None;
      upper = None;
      deadline_s = None;
      refactor = default_refactor;
    }
end

let make_params ?basis ?lower ?upper ?deadline_s ?(refactor = default_refactor)
    () =
  { Params.basis; lower; upper; deadline_s; refactor }

module Instance = struct
  type t = {
    lp : Lp.t;
    n : int;
    m : int;
    ncols : int;
    cidx : int array array;
    cval : float array array;
    base_lo : float array;
    base_up : float array;
    cost : float array;
    rhs : float array;
    rstart : int array;
        (** row-wise copy of the matrix: row [i]'s entries are
            [rstart.(i) .. rstart.(i+1) - 1] of [rcol]/[rval], in the row's
            coefficient order with the row's slack last *)
    rcol : int array;
    rval : float array;
  }

  let nvars t = t.n
  let nrows t = t.m

  (* Rows become equalities [a.x + s = rhs] with a bounded logical slack:
     Le gives s in [0, inf), Ge gives s in (-inf, 0], Eq pins s to 0. *)
  let create (lp : Lp.t) =
    let n = Lp.nvars lp and m = Lp.nrows lp in
    let ncols = n + m in
    let counts = Array.make ncols 0 in
    Array.iter
      (fun (r : Lp.row) ->
        Array.iter (fun (j, _) -> counts.(j) <- counts.(j) + 1) r.coeffs)
      lp.rows;
    for r = 0 to m - 1 do
      counts.(n + r) <- 1
    done;
    let cidx = Array.map (fun c -> Array.make c 0) counts in
    let cval = Array.map (fun c -> Array.make c 0.0) counts in
    let fill = Array.make ncols 0 in
    Array.iteri
      (fun r (row : Lp.row) ->
        Array.iter
          (fun (j, a) ->
            cidx.(j).(fill.(j)) <- r;
            cval.(j).(fill.(j)) <- a;
            fill.(j) <- fill.(j) + 1)
          row.coeffs)
      lp.rows;
    for r = 0 to m - 1 do
      cidx.(n + r).(0) <- r;
      cval.(n + r).(0) <- 1.0
    done;
    let base_lo = Array.make ncols 0.0 and base_up = Array.make ncols 0.0 in
    let cost = Array.make ncols 0.0 in
    Array.iteri
      (fun j (v : Lp.var) ->
        base_lo.(j) <- v.lower;
        base_up.(j) <- v.upper;
        cost.(j) <- v.obj)
      lp.vars;
    Array.iteri
      (fun r (row : Lp.row) ->
        let lo, up =
          match row.sense with
          | Lp.Le -> (0.0, infinity)
          | Lp.Ge -> (neg_infinity, 0.0)
          | Lp.Eq -> (0.0, 0.0)
        in
        base_lo.(n + r) <- lo;
        base_up.(n + r) <- up)
      lp.rows;
    let rhs = Array.map (fun (r : Lp.row) -> r.rhs) lp.rows in
    let rstart = Array.make (m + 1) 0 in
    Array.iteri
      (fun r (row : Lp.row) ->
        rstart.(r + 1) <- rstart.(r) + Array.length row.coeffs + 1)
      lp.rows;
    let rcol = Array.make rstart.(m) 0 and rval = Array.make rstart.(m) 0.0 in
    Array.iteri
      (fun r (row : Lp.row) ->
        Array.iteri
          (fun k (j, a) ->
            rcol.(rstart.(r) + k) <- j;
            rval.(rstart.(r) + k) <- a)
          row.coeffs;
        rcol.(rstart.(r + 1) - 1) <- n + r;
        rval.(rstart.(r + 1) - 1) <- 1.0)
      lp.rows;
    {
      lp;
      n;
      m;
      ncols;
      cidx;
      cval;
      base_lo;
      base_up;
      cost;
      rhs;
      rstart;
      rcol;
      rval;
    }

  type st = {
    inst : t;
    refp : refactor_params;
    lo : float array;
    up : float array;
    vstat : vstat array;
    basic : int array;
    vpos : int array;
    xb : float array;
    w : float array;
    y : float array;
    pat : int array;
        (** [pat.(0 .. np-1)]: the FTRAN pattern of the column in [w], in
            ascending row order; [w] is zero on every other row *)
    mark : Bytes.t;  (** ['\001'] exactly on the rows listed in [pat] *)
    mutable np : int;
    ptmp : int array;  (** [sort_pattern]'s buffer, one entry per row *)
    pcount : int array;  (** its bucket counts, [2^pdigit + 1] of them *)
    pdigit : int;  (** bits per radix pass: 2 passes cover a row index *)
    mutable nviol : int;
        (** basics outside a bound by more than [feas_tol]; the primal loop
            is in phase 1 exactly while this is positive *)
    (* Eta file of the product-form inverse, stored as a flat pool of
       unboxed arrays rather than an array of per-eta records: eta [k]
       pivots on row [e_rows.(k)] with diagonal [e_pivs.(k)] (already
       inverted), and its off-pivot entries live at
       [e_start.(k) .. e_start.(k+1) - 1] of [e_idx]/[e_val]. The FTRAN/
       BTRAN kernels walk these contiguously with unsafe accesses — the
       routing LPs spend most of their time here. *)
    mutable e_rows : int array;
    mutable e_pivs : float array;
    mutable e_start : int array;  (** length [cap + 1]; [e_start.(neta)] = pool fill *)
    mutable e_idx : int array;
    mutable e_val : float array;
    mutable neta : int;
    mutable eta_nnz_count : int;  (** running nonzero count of the eta file *)
    mutable nnz_at_refactor : int;  (** eta nonzeros of the fresh factorisation *)
    dw : float array;  (** devex reference weights, one per column *)
    mutable cursor : int;  (** partial-pricing scan cursor *)
    mutable y_valid : bool;
        (** [y] holds current phase-2 duals: bound flips leave the basis
            (hence the duals) untouched, so pricing after a flip can skip
            the BTRAN entirely *)
    mutable nflips : int;
    mutable warm_outcome : warm;
    mutable repairs : int;  (** basis columns dropped by refactorisation *)
    mutable btran_saved : int;
    mutable niter : int;
    mutable pivots_since_refactor : int;
    mutable bland : bool;
    mutable degen_count : int;
    mutable perturbed : bool;
    mutable perturb_rounds : int;
    perturb : float array;
    mutable bounds_shifted : bool;
    mutable orig_lo : float array;  (** saved when bounds are shifted *)
    mutable orig_up : float array;
  }

  (* Build and push the eta for a pivot on row [r] of the FTRANned column
     held in [st.w]. Its nonzeros all lie on the pattern [st.pat], whose
     ascending row order is the order a dense scan of [w] would store the
     off-pivot entries in. Identity columns (pivot 1, no off-pivot entries)
     produce no eta at all. Any eta push is a basis change, so the cached
     phase-2 duals are invalidated here. *)
  let push_eta st r =
    let w = st.w and rows = st.pat and nrows = st.np in
    let piv = w.(r) in
    let off = st.e_start.(st.neta) in
    if off + nrows > Array.length st.e_idx then begin
      let cap = max 256 (max (off + nrows) (2 * Array.length st.e_idx)) in
      let idx = Array.make cap 0 and vl = Array.make cap 0.0 in
      Array.blit st.e_idx 0 idx 0 off;
      Array.blit st.e_val 0 vl 0 off;
      st.e_idx <- idx;
      st.e_val <- vl
    end;
    let e_idx = st.e_idx and e_val = st.e_val in
    let p = ref off in
    for k = 0 to nrows - 1 do
      let i = Array.unsafe_get rows k in
      let wi = Array.unsafe_get w i in
      if i <> r && Float.abs wi > zero_tol then begin
        Array.unsafe_set e_idx !p i;
        Array.unsafe_set e_val !p (-.wi /. piv);
        incr p
      end
    done;
    let cnt = !p - off in
    if cnt > 0 || Float.abs (piv -. 1.0) > zero_tol then begin
      if st.neta = Array.length st.e_rows then begin
        let cap = max 64 (2 * st.neta) in
        let rows = Array.make cap 0 and pivs = Array.make cap 0.0 in
        let starts = Array.make (cap + 1) 0 in
        Array.blit st.e_rows 0 rows 0 st.neta;
        Array.blit st.e_pivs 0 pivs 0 st.neta;
        Array.blit st.e_start 0 starts 0 (st.neta + 1);
        st.e_rows <- rows;
        st.e_pivs <- pivs;
        st.e_start <- starts
      end;
      st.e_rows.(st.neta) <- r;
      st.e_pivs.(st.neta) <- 1.0 /. piv;
      st.neta <- st.neta + 1;
      st.e_start.(st.neta) <- !p;
      st.eta_nnz_count <- st.eta_nnz_count + 1 + cnt
    end;
    st.y_valid <- false

  let ftran st v =
    let e_rows = st.e_rows and e_pivs = st.e_pivs and e_start = st.e_start in
    let e_idx = st.e_idx and e_val = st.e_val in
    for k = 0 to st.neta - 1 do
      let r = Array.unsafe_get e_rows k in
      let t = Array.unsafe_get v r in
      if t <> 0.0 then begin
        Array.unsafe_set v r (Array.unsafe_get e_pivs k *. t);
        let stop = Array.unsafe_get e_start (k + 1) in
        for p = Array.unsafe_get e_start k to stop - 1 do
          let i = Array.unsafe_get e_idx p in
          Array.unsafe_set v i
            (Array.unsafe_get v i +. (Array.unsafe_get e_val p *. t))
        done
      end
    done

  (* [ftran] on [st.w] for a column whose nonzero rows are listed in
     [st.pat.(0 .. np-1)] and marked in [st.mark]: the same arithmetic in
     the same order, plus recording each row an eta fills in. Returns the
     new pattern length. *)
  let ftran_pattern st np =
    let e_rows = st.e_rows and e_pivs = st.e_pivs and e_start = st.e_start in
    let e_idx = st.e_idx and e_val = st.e_val in
    let v = st.w and pat = st.pat and mark = st.mark in
    let np = ref np in
    for k = 0 to st.neta - 1 do
      let r = Array.unsafe_get e_rows k in
      let t = Array.unsafe_get v r in
      if t <> 0.0 then begin
        Array.unsafe_set v r (Array.unsafe_get e_pivs k *. t);
        let stop = Array.unsafe_get e_start (k + 1) in
        for p = Array.unsafe_get e_start k to stop - 1 do
          let i = Array.unsafe_get e_idx p in
          Array.unsafe_set v i
            (Array.unsafe_get v i +. (Array.unsafe_get e_val p *. t));
          if Bytes.unsafe_get mark i = '\000' then begin
            Bytes.unsafe_set mark i '\001';
            Array.unsafe_set pat !np i;
            incr np
          end
        done
      end
    done;
    !np

  let btran st v =
    let e_rows = st.e_rows and e_pivs = st.e_pivs and e_start = st.e_start in
    let e_idx = st.e_idx and e_val = st.e_val in
    for k = st.neta - 1 downto 0 do
      let r = Array.unsafe_get e_rows k in
      let s = ref (Array.unsafe_get e_pivs k *. Array.unsafe_get v r) in
      let stop = Array.unsafe_get e_start (k + 1) in
      for p = Array.unsafe_get e_start k to stop - 1 do
        s :=
          !s
          +. Array.unsafe_get e_val p
             *. Array.unsafe_get v (Array.unsafe_get e_idx p)
      done;
      Array.unsafe_set v r !s
    done

  let nb_value st j =
    match st.vstat.(j) with
    | At_lower -> st.lo.(j)
    | At_upper -> st.up.(j)
    | Nb_free -> 0.0
    | Basic -> assert false

  (* Snap a nonbasic variable onto a representable bound; used when warm
     starting with changed bounds. *)
  let normalize_nonbasic st j =
    match st.vstat.(j) with
    | Basic -> ()
    | At_lower when st.lo.(j) > neg_infinity -> ()
    | At_upper when st.up.(j) < infinity -> ()
    | At_lower | At_upper | Nb_free ->
      if st.lo.(j) > neg_infinity then st.vstat.(j) <- At_lower
      else if st.up.(j) < infinity then st.vstat.(j) <- At_upper
      else st.vstat.(j) <- Nb_free

  (* A basic variable outside a bound by more than [feas_tol]: exactly the
     basics with a nonzero phase-1 cost. *)
  let violated st pos =
    let j = st.basic.(pos) and x = st.xb.(pos) in
    x < st.lo.(j) -. feas_tol || x > st.up.(j) +. feas_tol

  let recount st =
    let c = ref 0 in
    for pos = 0 to st.inst.m - 1 do
      if violated st pos then incr c
    done;
    st.nviol <- !c

  (* [xb.(pos) -= d], keeping [nviol] current *)
  let move_basic st pos d =
    let j = st.basic.(pos) and x = st.xb.(pos) in
    let lo = st.lo.(j) -. feas_tol and up = st.up.(j) +. feas_tol in
    let x' = x -. d in
    st.xb.(pos) <- x';
    let was = x < lo || x > up and now = x' < lo || x' > up in
    if was <> now then st.nviol <- (if now then st.nviol + 1 else st.nviol - 1)

  let compute_xb st =
    let m = st.inst.m in
    let r = Array.make m 0.0 in
    Array.blit st.inst.rhs 0 r 0 m;
    for j = 0 to st.inst.ncols - 1 do
      if st.vstat.(j) <> Basic then begin
        let v = nb_value st j in
        if v <> 0.0 then begin
          let idx = st.inst.cidx.(j) and vl = st.inst.cval.(j) in
          for p = 0 to Array.length idx - 1 do
            r.(idx.(p)) <- r.(idx.(p)) -. (vl.(p) *. v)
          done
        end
      end
    done;
    ftran st r;
    Array.blit r 0 st.xb 0 m;
    recount st

  (* the least [b] with [2^b >= n] *)
  let bits n =
    let b = ref 0 in
    while 1 lsl !b < n do
      incr b
    done;
    !b

  (* Sort [a.(0 .. len-1)] ascending by the key [a.(i) lsr shift], making
     exactly the comparisons of the standard library's [Array.sort] (a
     ternary heap sort) but with no closure call per comparison. Elements
     of equal key therefore end in the order [Array.sort] leaves them in. *)
  let heap_sort a len shift =
    let key i = Array.unsafe_get a i lsr shift in
    (* the largest child of [i] in a heap of size [l], or -1 for a leaf *)
    let maxson l i =
      let i31 = i + i + i + 1 in
      if i31 + 2 < l then begin
        let x = if key i31 < key (i31 + 1) then i31 + 1 else i31 in
        if key x < key (i31 + 2) then i31 + 2 else x
      end
      else if i31 + 1 < l && key i31 < key (i31 + 1) then i31 + 1
      else if i31 < l then i31
      else -1
    in
    let rec trickle l i e =
      let j = maxson l i in
      if j >= 0 && key j > e lsr shift then begin
        a.(i) <- a.(j);
        trickle l j e
      end
      else a.(i) <- e
    in
    let rec bubble l i =
      let j = maxson l i in
      if j < 0 then i
      else begin
        a.(i) <- a.(j);
        bubble l j
      end
    in
    let rec trickleup i e =
      let father = (i - 1) / 3 in
      if key father < e lsr shift then begin
        a.(i) <- a.(father);
        if father > 0 then trickleup father e else a.(0) <- e
      end
      else a.(i) <- e
    in
    for i = ((len + 1) / 3) - 1 downto 0 do
      trickle len i a.(i)
    done;
    for i = len - 1 downto 2 do
      let e = a.(i) in
      a.(i) <- a.(0);
      trickleup (bubble i 0) e
    done;
    if len > 1 then begin
      let e = a.(1) in
      a.(1) <- a.(0);
      a.(0) <- e
    end

  (* Sort the distinct rows [pat.(0 .. len-1)] ascending. Most FTRAN
     patterns are a few rows long, where insertion sort is cheapest. A
     longer one takes an LSD radix sort: two counting passes through
     [ptmp], each over half the bits of a row index, at a cost linear in
     its length whatever m is. *)
  let sort_pattern st len =
    let a = st.pat in
    if len <= 32 then
      for i = 1 to len - 1 do
        let x = a.(i) in
        let k = ref (i - 1) in
        while !k >= 0 && a.(!k) > x do
          a.(!k + 1) <- a.(!k);
          decr k
        done;
        a.(!k + 1) <- x
      done
    else begin
      let count = st.pcount in
      let mask = Array.length count - 2 in
      let pass src dst shift =
        Array.fill count 0 (mask + 2) 0;
        for k = 0 to len - 1 do
          let c = ((Array.unsafe_get src k lsr shift) land mask) + 1 in
          Array.unsafe_set count c (Array.unsafe_get count c + 1)
        done;
        for c = 1 to mask + 1 do
          count.(c) <- count.(c) + count.(c - 1)
        done;
        for k = 0 to len - 1 do
          let x = Array.unsafe_get src k in
          let c = (x lsr shift) land mask in
          let p = Array.unsafe_get count c in
          Array.unsafe_set dst p x;
          Array.unsafe_set count c (p + 1)
        done
      in
      pass a st.ptmp 0;
      pass st.ptmp a st.pdigit
    end

  (* Load column [j] into [w] and FTRAN it, leaving its nonzero pattern in
     [pat.(0 .. np-1)] in ascending row order. The previous pattern is
     cleared first, so [w] stays zero outside the current one. Every pass
     over the column then walks the pattern in the row order of a dense
     scan of [w], which skips only rows where [w] is zero. *)
  let ftran_column st j =
    let w = st.w and pat = st.pat and mark = st.mark in
    for k = 0 to st.np - 1 do
      let i = pat.(k) in
      w.(i) <- 0.0;
      Bytes.set mark i '\000'
    done;
    let idx = st.inst.cidx.(j) and vl = st.inst.cval.(j) in
    let np = ref 0 in
    for p = 0 to Array.length idx - 1 do
      let i = idx.(p) in
      w.(i) <- vl.(p);
      (* a repeated row keeps its last value, as a dense scatter does *)
      if Bytes.get mark i = '\000' then begin
        Bytes.set mark i '\001';
        pat.(!np) <- i;
        incr np
      end
    done;
    let np = ftran_pattern st !np in
    sort_pattern st np;
    st.np <- np

  (* Rebuild the eta file from the current basis columns, repairing a
     singular basis by substituting logical slacks. Columns are processed
     sparsest-first (a poor man's Markowitz ordering), in the order
     [Array.sort] gives columns of equal length. Placing a column costs its
     FTRAN's nonzeros, not O(m). A slack whose row is still unassigned
     takes that row directly: no eta pivots on an unassigned row, so its
     FTRAN is its own unit column and it pushes no eta. Any other column
     goes through [ftran_column]; the pivot search (first strict maximum
     over unassigned rows) and the eta push then walk its pattern, so the
     eta file is bit-identical to one built by dense passes. *)
  let refactor st =
    let n = st.inst.n and m = st.inst.m in
    st.neta <- 0;
    st.eta_nnz_count <- 0;
    let assigned = Array.make m false in
    (* each basic column packed under its length, the sort key *)
    let shift = bits st.inst.ncols in
    let old_cols =
      Array.map (fun j -> (Array.length st.inst.cidx.(j) lsl shift) lor j) st.basic
    in
    heap_sort old_cols m shift;
    Array.iteri (fun k c -> old_cols.(k) <- c land ((1 lsl shift) - 1)) old_cols;
    let dropped = ref [] in
    let assign j r =
      assigned.(r) <- true;
      st.basic.(r) <- j;
      st.vpos.(j) <- r;
      st.vstat.(j) <- Basic
    in
    let place j =
      if j >= n && not assigned.(j - n) then assign j (j - n)
      else begin
        ftran_column st j;
        let w = st.w and pat = st.pat in
        let best = ref (-1) and best_mag = ref 0.0 in
        for k = 0 to st.np - 1 do
          let r = pat.(k) in
          if not assigned.(r) then begin
            let mag = Float.abs w.(r) in
            if mag > !best_mag then begin
              best := r;
              best_mag := mag
            end
          end
        done;
        if !best < 0 || !best_mag < pivot_tol then dropped := j :: !dropped
        else begin
          assign j !best;
          push_eta st !best
        end
      end
    in
    Array.iter (fun j -> st.vpos.(j) <- -1) old_cols;
    Array.iter place old_cols;
    (* Kick singular columns out of the basis... *)
    st.repairs <- st.repairs + List.length !dropped;
    List.iter
      (fun j ->
        st.vstat.(j) <- At_lower;
        normalize_nonbasic st j)
      !dropped;
    (* ...and let slacks of unassigned rows take their place. A basic
       slack never reaches this loop: it either took its own row or found
       the row already assigned. *)
    for r = 0 to m - 1 do
      if not assigned.(r) then assign (n + r) r
    done;
    st.pivots_since_refactor <- 0;
    st.nnz_at_refactor <- st.eta_nnz_count;
    st.y_valid <- false;
    compute_xb st

  let eta_nnz st = st.eta_nnz_count

  (* The deterministic per-column epsilon of both cost perturbations, in
     [1e-7, 1.1e-6): the primal scales it after a degenerate stall, the
     dual signs and scales it on entry. *)
  let base_perturb j =
    let h = (j + 1) * 2654435761 land 0xFFFF in
    1e-7 +. (1e-6 *. float_of_int h /. 65536.0)

  (* Throw a basis away and restart from the all-slack basis; the composite
     phase 1 then restores feasibility. Used when a warm-start basis
     factorises with catastrophic fill-in (iterating on a dense eta file
     costs more than re-solving) and when the dual re-optimisation gives
     up; the dual's cost perturbation is withdrawn here. *)
  let cold_reset st =
    let n = st.inst.n and m = st.inst.m in
    st.perturbed <- false;
    Array.iteri (fun j _ -> st.perturb.(j) <- base_perturb j) st.perturb;
    st.neta <- 0;
    st.eta_nnz_count <- 0;
    st.nnz_at_refactor <- 0;
    st.y_valid <- false;
    st.cursor <- 0;
    Array.fill st.dw 0 (Array.length st.dw) 1.0;
    for j = 0 to st.inst.ncols - 1 do
      st.vpos.(j) <- -1;
      st.vstat.(j) <- At_lower;
      normalize_nonbasic st j
    done;
    for r = 0 to m - 1 do
      st.basic.(r) <- n + r;
      st.vstat.(n + r) <- Basic;
      st.vpos.(n + r) <- r
    done;
    st.pivots_since_refactor <- 0;
    compute_xb st

  (* Drift of the factorised representation:
     ||B x_B + N x_N - rhs||_inf / (1 + ||rhs||_inf). A fresh
     factorisation satisfies the system to round-off; growth means the
     eta file has accumulated cancellation and the basis values are no
     longer trustworthy. One sparse matrix-vector pass, no FTRAN. *)
  let ftran_residual st =
    let m = st.inst.m in
    let r = Array.make m 0.0 in
    Array.blit st.inst.rhs 0 r 0 m;
    for j = 0 to st.inst.ncols - 1 do
      let v =
        if st.vstat.(j) = Basic then st.xb.(st.vpos.(j)) else nb_value st j
      in
      if v <> 0.0 && Float.is_finite v then begin
        let idx = st.inst.cidx.(j) and vl = st.inst.cval.(j) in
        for p = 0 to Array.length idx - 1 do
          r.(idx.(p)) <- r.(idx.(p)) -. (vl.(p) *. v)
        done
      end
    done;
    let mx = ref 0.0 and scale = ref 1.0 in
    for i = 0 to m - 1 do
      mx := Float.max !mx (Float.abs r.(i));
      scale := Float.max !scale (Float.abs st.inst.rhs.(i))
    done;
    !mx /. !scale

  (* Adaptive refactorisation: the pivot interval is the hard cap, but a
     degrading eta file triggers early. Fill requires both an absolute
     budget ([fill_factor] nonzeros per row) and genuine growth over the
     fresh factorisation, so an intrinsically dense basis cannot thrash;
     the residual probe runs every 32 pivots. Both triggers wait out the
     first few pivots — refactoring is itself O(eta file). *)
  let should_refactor st =
    st.pivots_since_refactor >= st.refp.interval
    || (st.pivots_since_refactor >= 8
       && float_of_int st.eta_nnz_count
          > st.refp.fill_factor *. float_of_int (st.inst.m + 1)
       && st.eta_nnz_count > 2 * st.nnz_at_refactor)
    || (st.pivots_since_refactor >= 8
       && st.pivots_since_refactor mod 32 = 0
       && ftran_residual st > st.refp.residual_tol)

  (* Primal degeneracy remedy (the EXPAND idea): shift every finite bound
     outward by a tiny column-specific epsilon so basic variables are never
     exactly at a bound and ratio tests make strictly positive steps. The
     shift is withdrawn before optimality is declared; the residual
     infeasibility is far below the feasibility tolerance of callers. *)
  let shift_bounds st =
    let ncols = st.inst.ncols in
    if not st.bounds_shifted then begin
      st.orig_lo <- Array.copy st.lo;
      st.orig_up <- Array.copy st.up
    end;
    for j = 0 to ncols - 1 do
      let h1 = float_of_int ((j + 1) * 40503 land 0xFFF) /. 4096.0 in
      let h2 = float_of_int ((j + 7) * 48271 land 0xFFF) /. 4096.0 in
      if st.lo.(j) > neg_infinity then
        st.lo.(j) <- st.lo.(j) -. (1e-8 *. (1.0 +. h1));
      if st.up.(j) < infinity then
        st.up.(j) <- st.up.(j) +. (1e-8 *. (1.0 +. h2))
    done;
    st.bounds_shifted <- true;
    compute_xb st

  let unshift_bounds st =
    if st.bounds_shifted then begin
      Array.blit st.orig_lo 0 st.lo 0 (Array.length st.orig_lo);
      Array.blit st.orig_up 0 st.up 0 (Array.length st.orig_up);
      st.bounds_shifted <- false;
      compute_xb st
    end

  type entering = { q : int; dir : float; dq : float }

  (* Phase-1 objective: sum of bound violations of basic variables. Its
     gradient with respect to basic variable values is -1 below the lower
     bound, +1 above the upper bound, 0 otherwise. *)
  (* Phase-2 cost with the anti-degeneracy perturbation applied. The
     perturbation is a deterministic, column-specific epsilon far below the
     cost scale; it breaks the massive ties routing LPs exhibit. It is
     removed again before optimality is declared. *)
  let cost_of st j =
    if st.perturbed then st.inst.cost.(j) +. st.perturb.(j)
    else st.inst.cost.(j)

  let basic_phase1_cost st pos =
    let j = st.basic.(pos) in
    let x = st.xb.(pos) in
    if x < st.lo.(j) -. feas_tol then -1.0
    else if x > st.up.(j) +. feas_tol then 1.0
    else 0.0

  let compute_duals st ~phase1 =
    let m = st.inst.m in
    for pos = 0 to m - 1 do
      st.y.(pos) <-
        (if phase1 then basic_phase1_cost st pos else cost_of st st.basic.(pos))
    done;
    btran st st.y;
    (* Phase-1 duals depend on the basic values, which move every step, so
       they are never cached; phase-2 duals stay valid until the basis or
       the (perturbed) costs change. *)
    st.y_valid <- not phase1

  let ensure_duals st ~phase1 =
    if phase1 || not st.y_valid then compute_duals st ~phase1

  let reduced_cost st ~phase1 j =
    let c = if phase1 then 0.0 else cost_of st j in
    let idx = st.inst.cidx.(j) and vl = st.inst.cval.(j) in
    let acc = ref c in
    for p = 0 to Array.length idx - 1 do
      acc := !acc -. (vl.(p) *. st.y.(idx.(p)))
    done;
    !acc

  (* Bland's rule: the least-index eligible column. The solve loop falls
     back to it after a long degenerate stall, for its anti-cycling
     guarantee. *)
  let bland_price st ~phase1 =
    ensure_duals st ~phase1;
    let best = ref None and j = ref 0 in
    while Option.is_none !best && !j < st.inst.ncols do
      let jj = !j in
      (match st.vstat.(jj) with
      | Basic -> ()
      | At_lower | At_upper | Nb_free ->
        if st.up.(jj) -. st.lo.(jj) > zero_tol then begin
          let d = reduced_cost st ~phase1 jj in
          let dir =
            match st.vstat.(jj) with
            | At_lower -> if d < -.dual_tol then 1.0 else 0.0
            | At_upper -> if d > dual_tol then -1.0 else 0.0
            | Nb_free ->
              if d < -.dual_tol then 1.0
              else if d > dual_tol then -1.0
              else 0.0
            | Basic -> 0.0
          in
          if dir <> 0.0 then best := Some { q = jj; dir; dq = d }
        end);
      incr j
    done;
    !best

  (* Devex pricing over a partial candidate scan. Scores are d^2 / w_j
     against the reference weights in [st.dw]; the scan starts at the
     persistent cursor and wraps, stopping one chunk after the first
     eligible candidate. Because the duals are fixed for the whole call, a
     full wrap that finds no candidate is exactly the full-pricing
     optimality claim — no separate refresh pass is needed (and the solve
     loop re-derives any terminal claim from a fresh factorisation
     anyway). *)
  let devex_price st ~phase1 =
    ensure_duals st ~phase1;
    let ncols = st.inst.ncols in
    let chunk = max 200 (ncols / 16) in
    let best = ref None and best_score = ref 0.0 in
    let scanned = ref 0 and found = ref 0 in
    let j = ref st.cursor in
    if !j >= ncols then j := 0;
    (* An empty LP has no columns at all; the do-while scan below
       tests its exit condition only after touching a column. *)
    let scanning = ref (ncols > 0) in
    while !scanning do
      let jj = !j in
      (match st.vstat.(jj) with
      | Basic -> ()
      | At_lower | At_upper | Nb_free ->
        if st.up.(jj) -. st.lo.(jj) > zero_tol then begin
          let d = reduced_cost st ~phase1 jj in
          let dir =
            match st.vstat.(jj) with
            | At_lower -> if d < -.dual_tol then 1.0 else 0.0
            | At_upper -> if d > dual_tol then -1.0 else 0.0
            | Nb_free ->
              if d < -.dual_tol then 1.0
              else if d > dual_tol then -1.0
              else 0.0
            | Basic -> 0.0
          in
          if dir <> 0.0 then begin
            incr found;
            let score = d *. d /. Float.max 1e-12 st.dw.(jj) in
            if score > !best_score then begin
              best_score := score;
              best := Some { q = jj; dir; dq = d }
            end
          end
        end);
      incr scanned;
      j := jj + 1;
      if !j >= ncols then j := 0;
      if !scanned >= ncols then scanning := false
      else if !found > 0 && !scanned >= chunk then scanning := false
    done;
    st.cursor <- !j;
    !best

  let price st ~phase1 =
    if st.bland then bland_price st ~phase1 else devex_price st ~phase1

  type step_limit = Unlimited | Flip of float | Block of int * float * vstat

  (* Bounded-variable ratio test with the conservative phase-1 convention:
     an infeasible basic variable blocks as soon as it reaches the bound it
     violates (where the phase-1 gradient would change). Ties are broken by
     the largest pivot magnitude for stability — except under Bland's rule,
     which requires the least variable index in the leaving choice too, or
     its anti-cycling guarantee does not hold. *)
  let ratio_test st ~phase1 (e : entering) =
    ftran_column st e.q;
    let range = st.up.(e.q) -. st.lo.(e.q) in
    let limit = ref (if range < infinity then Flip range else Unlimited) in
    let limit_t = ref (match !limit with Flip t -> t | Unlimited | Block _ -> infinity) in
    let limit_mag = ref 0.0 in
    let limit_var = ref max_int in
    (* Entries below the pivot tolerance cannot safely leave the basis;
       skipping them bounds the induced infeasibility by t * |w_i|, well
       inside the feasibility tolerance. *)
    for k = 0 to st.np - 1 do
      let pos = st.pat.(k) in
      let wi = st.w.(pos) in
      if Float.abs wi > pivot_tol /. 10.0 then begin
        let rate = -.e.dir *. wi in
        let j = st.basic.(pos) in
        let x = st.xb.(pos) and lj = st.lo.(j) and uj = st.up.(j) in
        let candidate =
          if phase1 && x < lj -. feas_tol then
            if rate > 0.0 then Some ((lj -. x) /. rate, At_lower) else None
          else if phase1 && x > uj +. feas_tol then
            if rate < 0.0 then Some ((x -. uj) /. -.rate, At_upper) else None
          else if rate > 0.0 then
            if uj < infinity then Some (Float.max 0.0 ((uj -. x) /. rate), At_upper)
            else None
          else if lj > neg_infinity then
            Some (Float.max 0.0 ((x -. lj) /. -.rate), At_lower)
          else None
        in
        match candidate with
        | None -> ()
        | Some (t, bound) ->
          let mag = Float.abs wi in
          let better =
            if t < !limit_t -. 1e-10 then true
            else if t >= !limit_t +. 1e-10 then false
            else if st.bland then j < !limit_var
            else mag > !limit_mag
          in
          if better then begin
            limit := Block (pos, t, bound);
            limit_t := t;
            limit_mag := mag;
            limit_var := j
          end
      end
    done;
    !limit

  let apply_step st (e : entering) lim =
    match lim with
    | Unlimited -> assert false
    | Flip t ->
      let delta = e.dir *. t in
      for k = 0 to st.np - 1 do
        let pos = st.pat.(k) in
        let wi = st.w.(pos) in
        if wi <> 0.0 then move_basic st pos (wi *. delta)
      done;
      st.vstat.(e.q) <-
        (match st.vstat.(e.q) with
        | At_lower -> At_upper
        | At_upper -> At_lower
        | Nb_free | Basic ->
          raise (Numerical_failure "flip on free or basic variable"));
      st.nflips <- st.nflips + 1;
      t
    | Block (r, t, leave_bound) ->
      let delta = e.dir *. t in
      let entering_value = nb_value st e.q +. delta in
      for k = 0 to st.np - 1 do
        let pos = st.pat.(k) in
        let wi = st.w.(pos) in
        if wi <> 0.0 && pos <> r then move_basic st pos (wi *. delta)
      done;
      if violated st r then st.nviol <- st.nviol - 1;
      let leaving = st.basic.(r) in
      st.vstat.(leaving) <- leave_bound;
      st.vpos.(leaving) <- -1;
      (match leave_bound with
      | At_lower when st.lo.(leaving) = neg_infinity ->
        raise (Numerical_failure "leaving variable has no lower bound")
      | At_upper when st.up.(leaving) = infinity ->
        raise (Numerical_failure "leaving variable has no upper bound")
      | At_lower | At_upper -> ()
      | Basic | Nb_free -> assert false);
      let piv = st.w.(r) in
      if Float.abs piv < pivot_tol /. 10.0 then
        raise (Numerical_failure "pivot element too small");
      (* Devex: only the leaving variable gets a fresh reference weight
         (the cheap update); an overflowing weight resets the framework. *)
      let wl = Float.max 1.0 (Float.max 1.0 st.dw.(e.q) /. (piv *. piv)) in
      if wl > 1e10 then Array.fill st.dw 0 (Array.length st.dw) 1.0
      else st.dw.(leaving) <- wl;
      push_eta st r;
      st.vstat.(e.q) <- Basic;
      st.vpos.(e.q) <- r;
      st.basic.(r) <- e.q;
      st.xb.(r) <- entering_value;
      if violated st r then st.nviol <- st.nviol + 1;
      st.pivots_since_refactor <- st.pivots_since_refactor + 1;
      t

  let value_of st j =
    if st.vpos.(j) >= 0 then st.xb.(st.vpos.(j)) else nb_value st j

  type dual_outcome =
    | Reoptimised
    | Certified_infeasible
    | Not_dual_feasible
    | Gave_up

  (* Certify a dual ray: the leaving variable [jl] cannot reach the bound
     it violates ([below]: its lower bound) at any point of the box. From a
     fresh factorisation, rho = B^-T e_r with its round-off entries zeroed
     (any multiplier vector is a valid Farkas candidate) gives
     x_B(r) = rho.b - sum_j alpha_j x_j over the nonbasic columns, with
     alpha_j = rho.a_j; the claim stands only when the extreme of that sum
     over every nonbasic column's box, including the columns the ratio test
     skips as too small to pivot on, misses the bound by more than 1e-6. *)
  let certify_ray st jl ~below =
    refactor st;
    let r = st.vpos.(jl) in
    r >= 0
    && begin
         let m = st.inst.m in
         let rho = Array.make m 0.0 in
         rho.(r) <- 1.0;
         btran st rho;
         let big = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 rho in
         let base = ref 0.0 in
         for i = 0 to m - 1 do
           if Float.abs rho.(i) <= 1e-9 *. big then rho.(i) <- 0.0
           else base := !base +. (rho.(i) *. st.inst.rhs.(i))
         done;
         (* [lo_sum, hi_sum] bounds sum_j alpha_j x_j; neither sum can
            meet an infinity of the opposite sign, so no NaN arises *)
         let lo_sum = ref 0.0 and hi_sum = ref 0.0 in
         for j = 0 to st.inst.ncols - 1 do
           if st.vstat.(j) <> Basic then begin
             let idx = st.inst.cidx.(j) and vl = st.inst.cval.(j) in
             let alpha = ref 0.0 in
             for p = 0 to Array.length idx - 1 do
               alpha := !alpha +. (vl.(p) *. rho.(idx.(p)))
             done;
             let alpha = !alpha in
             if alpha <> 0.0 then begin
               let a = alpha *. st.lo.(j) and b = alpha *. st.up.(j) in
               lo_sum := !lo_sum +. Float.min a b;
               hi_sum := !hi_sum +. Float.max a b
             end
           end
         done;
         if below then !base -. !lo_sum < st.lo.(jl) -. 1e-6
         else !base -. !hi_sum > st.up.(jl) +. 1e-6
       end

  (* Bounded-variable dual simplex, used to re-optimise a warm basis
     (cross-rule roots, branch-and-bound children): the basis is dual
     feasible but primal infeasible in a few basic variables, which the
     dual method repairs in a handful of pivots where the composite primal
     phase 1 takes thousands. On entry each nonbasic column's cost is
     shifted by [base_perturb j * (1 + |c_j|)] in its dual-feasible
     direction, which breaks the dual degeneracy of routing LPs; the primal
     loop withdraws the shift before any optimality claim. The ratio test
     is the long-step (bound-flipping) one: breakpoints t_j = |d_j|/|alpha_j|
     are passed in ascending tie groups while the leaving row's remaining
     infeasibility pays for flipping every boxed column of the group, and
     the largest-|alpha| column of the group where it stops enters; the
     passed flips are applied with one FTRAN before the basis change. A row
     with no candidate, or whose every candidate flips without reaching the
     bound, is a dual ray: [Certified_infeasible] once [certify_ray]
     confirms it. A basis that is not dual feasible returns
     [Not_dual_feasible] before any pivot, with [y] holding its unperturbed
     duals. Anything else that stops the method (a refused ray, a
     vanishing pivot, the pivot cap) returns [Gave_up], and the caller
     restarts cold. *)
  let dual_reoptimize st ~max_pivots =
    let m = st.inst.m and ncols = st.inst.ncols in
    (* One BTRAN computes the duals here; every subsequent pivot updates
       them incrementally (y += theta * rho, where rho = B^-T e_r is the
       pivot row the ratio test needs anyway), so each dual pivot costs a
       single BTRAN pass instead of two. Refactorisation recomputes them
       from scratch for hygiene. *)
    let dual_feasible () =
      compute_duals st ~phase1:false;
      try
        for j = 0 to ncols - 1 do
          if st.vstat.(j) <> Basic && st.up.(j) -. st.lo.(j) > zero_tol then begin
            let d = reduced_cost st ~phase1:false j in
            match st.vstat.(j) with
            | At_lower -> if d < -1e-6 then raise Exit
            | At_upper -> if d > 1e-6 then raise Exit
            | Nb_free -> if Float.abs d > 1e-6 then raise Exit
            | Basic -> ()
          end
        done;
        true
      with Exit -> false
    in
    if not (dual_feasible ()) then Not_dual_feasible
    else begin
      (* Basic costs stay unshifted, so the duals just computed stand. *)
      for j = 0 to ncols - 1 do
        let e = base_perturb j *. (1.0 +. Float.abs st.inst.cost.(j)) in
        st.perturb.(j) <-
          (if st.up.(j) -. st.lo.(j) <= zero_tol then 0.0
           else
             match st.vstat.(j) with
             | At_lower -> e
             | At_upper -> -.e
             | Basic | Nb_free -> 0.0)
      done;
      st.perturbed <- true;
      let rho = Array.make m 0.0 and v = Array.make m 0.0 in
      (* rho's nonzero rows, and the pivot row rho^T A on the columns they
         touch (marked in [cmark]) *)
      let rnz = Array.make m 0 and prow = Array.make ncols 0.0 in
      let cmark = Bytes.make ncols '\000' in
      (* ratio-test candidates: column, breakpoint, alpha, reduced cost *)
      let cj = Array.make ncols 0 and ct = Array.make ncols 0.0 in
      let ca = Array.make ncols 0.0 and cd = Array.make ncols 0.0 in
      let flips = Array.make ncols 0 and grp = Array.make ncols 0 in
      (* [vlist.(0 .. vn-1)], marked in [vmark]: every basis position
         whose value is outside a bound by more than [feas_tol], and
         perhaps some that have since moved back, which the leaving-row
         choice drops. [note] lists a position after its value changes;
         a refactorisation recomputes every value, and [relist] the list. *)
      let vlist = Array.make m 0 and vmark = Bytes.make m '\000' in
      let vn = ref 0 in
      let note pos =
        if Bytes.unsafe_get vmark pos = '\000' then begin
          let j = st.basic.(pos) and x = st.xb.(pos) in
          if st.lo.(j) -. x > feas_tol || x -. st.up.(j) > feas_tol then begin
            Bytes.unsafe_set vmark pos '\001';
            vlist.(!vn) <- pos;
            incr vn
          end
        end
      in
      let relist () =
        for a = 0 to !vn - 1 do
          Bytes.unsafe_set vmark vlist.(a) '\000'
        done;
        vn := 0;
        for pos = 0 to m - 1 do
          note pos
        done
      in
      relist ();
      let outcome = ref None and pivots = ref 0 in
      while Option.is_none !outcome do
        if !pivots >= max_pivots then outcome := Some Gave_up
        else begin
          incr pivots;
          st.niter <- st.niter + 1;
          (* leaving variable: the most violated basic, the lowest position
             on ties, as an ascending scan of every position finds it *)
          let r = ref (-1) and viol = ref feas_tol and below = ref false in
          let a = ref 0 in
          while !a < !vn do
            let pos = vlist.(!a) in
            let j = st.basic.(pos) and x = st.xb.(pos) in
            let lv = st.lo.(j) -. x and uv = x -. st.up.(j) in
            if lv > feas_tol || uv > feas_tol then begin
              let v = if lv > feas_tol then lv else uv in
              if v > !viol || (v = !viol && pos < !r) then begin
                r := pos;
                viol := v;
                below := lv > feas_tol
              end;
              incr a
            end
            else begin
              Bytes.unsafe_set vmark pos '\000';
              decr vn;
              vlist.(!a) <- vlist.(!vn)
            end
          done;
          if !r < 0 then outcome := Some Reoptimised
          else begin
            let r = !r and below = !below in
            let jl = st.basic.(r) in
            Array.fill rho 0 m 0.0;
            rho.(r) <- 1.0;
            btran st rho;
            (* st.y is already current (incremental update below), saving
               the from-scratch BTRAN the pivot loop used to do here *)
            st.btran_saved <- st.btran_saved + 1;
            (* The pivot row, row by row over rho's nonzeros in ascending
               row order: each column sums the nonzero terms of its
               column-wise dot product in the same order, and a zero term
               could only change the sign of a zero sum. *)
            let nr = ref 0 in
            for i = 0 to m - 1 do
              if rho.(i) <> 0.0 then begin
                rnz.(!nr) <- i;
                incr nr
              end
            done;
            (* the touched columns are listed in [cj], which the candidates
               below then overwrite from the front *)
            let nr = !nr and nt = ref 0 in
            let rstart = st.inst.rstart and rcol = st.inst.rcol in
            let rval = st.inst.rval in
            for a = 0 to nr - 1 do
              let i = rnz.(a) in
              let ri = rho.(i) in
              for p = rstart.(i) to rstart.(i + 1) - 1 do
                let j = Array.unsafe_get rcol p in
                if Bytes.unsafe_get cmark j = '\000' then begin
                  Bytes.unsafe_set cmark j '\001';
                  cj.(!nt) <- j;
                  incr nt
                end;
                Array.unsafe_set prow j
                  (Array.unsafe_get prow j +. (Array.unsafe_get rval p *. ri))
              done
            done;
            (* breakpoints of the columns whose admissible movement pushes
               the leaving value back towards its bound; the walk below
               orders them whatever order they are found in *)
            let k = ref 0 in
            for t = 0 to !nt - 1 do
              let j = cj.(t) in
              let alpha = prow.(j) in
              prow.(j) <- 0.0;
              Bytes.set cmark j '\000';
              if st.vstat.(j) <> Basic && st.up.(j) -. st.lo.(j) > zero_tol then begin
                if Float.abs alpha > pivot_tol then begin
                  let eligible =
                    (* x_B(r) changes by -alpha * dx_j *)
                    match st.vstat.(j) with
                    | At_lower -> if below then alpha < 0.0 else alpha > 0.0
                    | At_upper -> if below then alpha > 0.0 else alpha < 0.0
                    | Nb_free -> true
                    | Basic -> false
                  in
                  if eligible then begin
                    let d = reduced_cost st ~phase1:false j in
                    let slack =
                      match st.vstat.(j) with
                      | At_lower -> Float.max 0.0 d
                      | At_upper -> Float.max 0.0 (-.d)
                      | Nb_free | Basic -> Float.abs d
                    in
                    cj.(!k) <- j;
                    ct.(!k) <- slack /. Float.abs alpha;
                    ca.(!k) <- alpha;
                    cd.(!k) <- d;
                    incr k
                  end
                end
              end
            done;
            (* Walk the tie groups in ascending breakpoint order: a group
               is passed (every member flips) while the remaining
               infeasibility stays above [feas_tol] after paying
               |alpha_j| * (u_j - l_j) for each member; an infinite range
               ends the walk. A group that pays it off exactly leaves
               round-off (1e-16) behind, and passing it would end the walk
               on a ray that [certify_ray] refuses. A group is every
               remaining candidate within 1e-12 of the least remaining
               breakpoint, found by one scan and put in (t, column) order
               by insertion, which is the run a sort of all candidates by
               (t, column) would give: the walk almost always stops in the
               first group, so nothing else is ever sorted. A passed group
               leaves the candidate arrays. *)
            let slope = ref !viol and nflip = ref 0 in
            let enter = ref (-1) and k = ref !k in
            while !enter < 0 && !k > 0 do
              let t0 = ref ct.(0) in
              for c = 1 to !k - 1 do
                if ct.(c) < !t0 then t0 := ct.(c)
              done;
              let lim = !t0 +. 1e-12 in
              let ng = ref 0 in
              for c = 0 to !k - 1 do
                let t = ct.(c) in
                if t <= lim then begin
                  let i = ref !ng in
                  while
                    !i > 0
                    &&
                    let d = grp.(!i - 1) in
                    ct.(d) > t || (ct.(d) = t && cj.(d) > cj.(c))
                  do
                    grp.(!i) <- grp.(!i - 1);
                    decr i
                  done;
                  grp.(!i) <- c;
                  incr ng
                end
              done;
              let dec = ref 0.0 and best = ref (-1) in
              for p = 0 to !ng - 1 do
                let c = grp.(p) in
                let j = cj.(c) in
                dec := !dec +. (Float.abs ca.(c) *. (st.up.(j) -. st.lo.(j)));
                if !best < 0 || Float.abs ca.(c) > Float.abs ca.(!best) then
                  best := c
              done;
              if !slope -. !dec > feas_tol then begin
                for p = 0 to !ng - 1 do
                  flips.(!nflip) <- cj.(grp.(p));
                  incr nflip
                done;
                slope := !slope -. !dec;
                let kept = ref 0 in
                for c = 0 to !k - 1 do
                  if ct.(c) > lim then begin
                    cj.(!kept) <- cj.(c);
                    ct.(!kept) <- ct.(c);
                    ca.(!kept) <- ca.(c);
                    cd.(!kept) <- cd.(c);
                    incr kept
                  end
                done;
                k := !kept
              end
              else enter := !best
            done;
            if !enter < 0 then
              outcome :=
                Some
                  (if certify_ray st jl ~below then Certified_infeasible
                   else Gave_up)
            else begin
              if !nflip > 0 then begin
                (* every passed column moves to its opposite bound: one
                   FTRAN of sum_j a_j dx_j updates the basic values *)
                Array.fill v 0 m 0.0;
                for f = 0 to !nflip - 1 do
                  let j = flips.(f) in
                  let dx, flipped =
                    match st.vstat.(j) with
                    | At_lower -> (st.up.(j) -. st.lo.(j), At_upper)
                    | At_upper -> (st.lo.(j) -. st.up.(j), At_lower)
                    | Nb_free | Basic -> assert false
                  in
                  let idx = st.inst.cidx.(j) and vl = st.inst.cval.(j) in
                  for p = 0 to Array.length idx - 1 do
                    v.(idx.(p)) <- v.(idx.(p)) +. (vl.(p) *. dx)
                  done;
                  st.vstat.(j) <- flipped
                done;
                ftran st v;
                for pos = 0 to m - 1 do
                  if v.(pos) <> 0.0 then begin
                    st.xb.(pos) <- st.xb.(pos) -. v.(pos);
                    note pos
                  end
                done;
                st.nflips <- st.nflips + !nflip
              end;
              let q = cj.(!enter) in
              ftran_column st q;
              let alpha = st.w.(r) in
              let target = if below then st.lo.(jl) else st.up.(jl) in
              let tau = (st.xb.(r) -. target) /. alpha in
              let dir_ok =
                match st.vstat.(q) with
                | At_lower -> tau >= -1e-9
                | At_upper -> tau <= 1e-9
                | Nb_free -> true
                | Basic -> false
              in
              if Float.abs alpha < pivot_tol /. 10.0 || not dir_ok then
                outcome := Some Gave_up
              else begin
                let entering_value = nb_value st q +. tau in
                for k = 0 to st.np - 1 do
                  let pos = st.pat.(k) in
                  if pos <> r && st.w.(pos) <> 0.0 then begin
                    st.xb.(pos) <- st.xb.(pos) -. (st.w.(pos) *. tau);
                    note pos
                  end
                done;
                st.vstat.(jl) <- (if below then At_lower else At_upper);
                st.vpos.(jl) <- -1;
                let wl =
                  Float.max 1.0 (Float.max 1.0 st.dw.(q) /. (alpha *. alpha))
                in
                if wl > 1e10 then Array.fill st.dw 0 (Array.length st.dw) 1.0
                else st.dw.(jl) <- wl;
                push_eta st r;
                st.vstat.(q) <- Basic;
                st.vpos.(q) <- r;
                st.basic.(r) <- q;
                st.xb.(r) <- entering_value;
                note r;
                st.pivots_since_refactor <- st.pivots_since_refactor + 1;
                (* Incremental dual update: the new basis prices q to zero,
                   so y' = y + (d_q / alpha_rq) * rho. Bound flips leave
                   the basis (and hence y) untouched. *)
                let theta = cd.(!enter) /. alpha in
                for a = 0 to nr - 1 do
                  let i = rnz.(a) in
                  st.y.(i) <- st.y.(i) +. (theta *. rho.(i))
                done;
                if should_refactor st then begin
                  refactor st;
                  compute_duals st ~phase1:false;
                  relist ()
                end
              end
            end
          end
        end
      done;
      Option.get !outcome
    end

  let extract st status =
    let n = st.inst.n in
    let x = Array.init n (fun j -> value_of st j) in
    compute_duals st ~phase1:false;
    let duals = Array.copy st.y in
    let objective =
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc := !acc +. (st.inst.cost.(j) *. x.(j))
      done;
      !acc
    in
    {
      status;
      objective;
      x;
      duals;
      basis =
        ({ vstat = Array.copy st.vstat; basic = Array.copy st.basic } : basis);
      iterations = st.niter;
      bound_flips = st.nflips;
      warm = st.warm_outcome;
      btran_saved = st.btran_saved;
    }

  let solve ?(params = Params.default) inst =
    let { Params.basis; lower; upper; deadline_s; refactor = refp } = params in
    let n = inst.n and m = inst.m and ncols = inst.ncols in
    let lo = Array.copy inst.base_lo and up = Array.copy inst.base_up in
    (match lower with
    | Some l ->
      assert (Array.length l = n);
      Array.blit l 0 lo 0 n
    | None -> ());
    (match upper with
    | Some u ->
      assert (Array.length u = n);
      Array.blit u 0 up 0 n
    | None -> ());
    for j = 0 to n - 1 do
      if lo.(j) > up.(j) then
        invalid_arg "Simplex.solve: lower bound exceeds upper bound"
    done;
    let pdigit = (bits m + 1) / 2 in
    let st =
      {
        inst;
        refp;
        lo;
        up;
        vstat = Array.make ncols At_lower;
        basic = Array.make m 0;
        vpos = Array.make ncols (-1);
        xb = Array.make m 0.0;
        w = Array.make m 0.0;
        y = Array.make m 0.0;
        pat = Array.make m 0;
        mark = Bytes.make m '\000';
        np = 0;
        ptmp = Array.make m 0;
        pcount = Array.make ((1 lsl pdigit) + 1) 0;
        pdigit;
        nviol = 0;
        e_rows = [||];
        e_pivs = [||];
        e_start = [| 0 |];
        e_idx = [||];
        e_val = [||];
        neta = 0;
        eta_nnz_count = 0;
        nnz_at_refactor = 0;
        dw = Array.make ncols 1.0;
        cursor = 0;
        y_valid = false;
        nflips = 0;
        warm_outcome = `Cold;
        repairs = 0;
        btran_saved = 0;
        niter = 0;
        pivots_since_refactor = 0;
        bland = false;
        degen_count = 0;
        perturbed = false;
        perturb_rounds = 0;
        perturb = Array.init ncols base_perturb;
        bounds_shifted = false;
        orig_lo = [||];
        orig_up = [||];
      }
    in
    let certified_infeasible =
      match basis with
      | Some (b : basis) -> (
        assert (Array.length b.vstat = ncols && Array.length b.basic = m);
        Array.blit b.vstat 0 st.vstat 0 ncols;
        Array.blit b.basic 0 st.basic 0 m;
        for j = 0 to ncols - 1 do
          normalize_nonbasic st j
        done;
        st.warm_outcome <- `Reused;
        refactor st;
        (* Re-optimise with the dual simplex. A basis that is primal but
           not dual feasible (a crash at a feasible point's bounds) goes
           straight to the primal loop below, which starts in phase 2.
           When the dual gives up, the basis is neither, or it factorised
           with pathological fill-in, the solve restarts from the
           all-slack basis. *)
        let abandon () =
          cold_reset st;
          st.warm_outcome <- `Abandoned;
          false
        in
        if eta_nnz st > (30 * m) + 5000 then abandon ()
        else
          match dual_reoptimize st ~max_pivots:((m / 2) + 200) with
          | Gave_up -> abandon ()
          | Not_dual_feasible when st.nviol > 0 -> abandon ()
          | (Reoptimised | Certified_infeasible | Not_dual_feasible) as outcome
            ->
            if st.repairs > 0 then st.warm_outcome <- `Repaired;
            outcome = Certified_infeasible)
      | None ->
        for r = 0 to m - 1 do
          st.basic.(r) <- n + r;
          st.vstat.(n + r) <- Basic;
          st.vpos.(n + r) <- r
        done;
        for j = 0 to n - 1 do
          normalize_nonbasic st j
        done;
        compute_xb st;
        false
    in
    let confirm = ref false in
    let rec loop () =
      if st.niter > max_iters then
        raise (Numerical_failure "simplex iteration limit reached");
      (match deadline_s with
      | Some deadline when st.niter land 63 = 0 && Unix.gettimeofday () > deadline ->
        raise (Numerical_failure "simplex deadline exceeded")
      | Some _ | None -> ());
      st.niter <- st.niter + 1;
      let phase1 = st.nviol > 0 in
      if st.niter mod 1000 = 0 then
        Log.debug ~src:"simplex" (fun () ->
            let obj = ref 0.0 in
            for pos = 0 to st.inst.m - 1 do
              obj := !obj +. (st.inst.cost.(st.basic.(pos)) *. st.xb.(pos))
            done;
            for j = 0 to st.inst.ncols - 1 do
              if st.vstat.(j) <> Basic then
                obj := !obj +. (st.inst.cost.(j) *. nb_value st j)
            done;
            Printf.sprintf
              "iter=%d phase=%d infeasible=%d obj=%.6f neta=%d eta_nnz=%d bland=%b degen=%d"
              st.niter
              (if phase1 then 1 else 2)
              st.nviol !obj st.neta (eta_nnz st) st.bland st.degen_count);
      match price st ~phase1 with
      | None ->
        if (not phase1) && st.perturbed then begin
          (* optimal for the perturbed costs: withdraw the perturbation and
             re-optimise the genuine objective (usually a few pivots) *)
          st.perturbed <- false;
          st.y_valid <- false;
          st.bland <- false;
          st.degen_count <- 0;
          confirm := false;
          loop ()
        end
        else if (not phase1) && st.bounds_shifted then begin
          (* optimal for the relaxed bounds: restore them; phase 1 then
             walks the few slightly-out-of-bounds basics back in *)
          unshift_bounds st;
          st.bland <- false;
          st.degen_count <- 0;
          confirm := false;
          loop ()
        end
        else if not !confirm then begin
          (* Re-derive the claim from a fresh factorisation before trusting
             it: eta-file drift can fake both optimality and infeasibility. *)
          confirm := true;
          refactor st;
          loop ()
        end
        else if phase1 then extract st Infeasible
        else extract st Optimal
      | Some e -> (
        confirm := false;
        match ratio_test st ~phase1 e with
        | Unlimited ->
          if phase1 then begin
            refactor st;
            match ratio_test st ~phase1 e with
            | Unlimited ->
              raise (Numerical_failure "unblocked phase-1 direction")
            | lim -> step e lim
          end
          else extract st Unbounded
        | lim -> step e lim)
    and step e lim =
      let t = apply_step st e lim in
      if t <= 1e-10 then begin
        st.degen_count <- st.degen_count + 1;
        if st.degen_count > 200 then st.bland <- true;
        (* A long fully-degenerate Bland sequence means a plateau the
           pivoting rules cannot escape. Remedies, escalating: perturb the
           costs (gives devex a strict direction across the plateau),
           then shift the bounds; give up after a few rounds and let the
           caller restart cold. *)
        if st.degen_count > 600 then begin
          if st.perturb_rounds < 3 then begin
            st.perturbed <- true;
            st.y_valid <- false;
            st.perturb_rounds <- st.perturb_rounds + 1;
            Array.iteri
              (fun j v ->
                st.perturb.(j) <-
                  v *. (1.0 +. float_of_int ((j + st.perturb_rounds) mod 7)))
              st.perturb
          end
          else if not st.bounds_shifted then shift_bounds st
          else raise (Numerical_failure "persistent degenerate cycling");
          st.bland <- false;
          st.degen_count <- 0
        end
      end
      else begin
        st.degen_count <- 0;
        st.bland <- false
      end;
      if should_refactor st then refactor st;
      loop ()
    in
    if certified_infeasible then begin
      (* the certificate came from a fresh factorisation; the duals of an
         infeasible result are meaningless, so report the genuine costs' *)
      st.perturbed <- false;
      extract st Infeasible
    end
    else begin
      (* the dual's steps leave [nviol] stale *)
      recount st;
      loop ()
    end
end

let solve ?params lp = Instance.solve ?params (Instance.create lp)

module Basis = struct
  type t = basis

  (* Name-keyed views of a basis, for warm starts across *different* LPs:
     rule deltas add or drop a few row families and columns between the
     RULE1 and RULEk encodings, so positional indices do not line up but
     names do. Only the per-column status is recorded — basis *positions*
     are an artefact of factorisation order and are rebuilt by [refactor]
     on intake. Variable and row namespaces share the flat assoc; a row
     entry carries the status of the row's logical slack. *)

  let status_code = function
    | Basic -> "B"
    | At_lower -> "L"
    | At_upper -> "U"
    | Nb_free -> "F"

  let status_of_code = function
    | "B" -> Some Basic
    | "L" -> Some At_lower
    | "U" -> Some At_upper
    | "F" -> Some Nb_free
    | _ -> None

  let to_assoc (lp : Lp.t) (b : basis) =
    let n = Lp.nvars lp and m = Lp.nrows lp in
    if Array.length b.vstat <> n + m then
      invalid_arg "Simplex.Basis.to_assoc: basis does not match the LP shape";
    let acc = ref [] in
    for r = m - 1 downto 0 do
      acc := (lp.rows.(r).Lp.r_name, b.vstat.(n + r)) :: !acc
    done;
    for j = n - 1 downto 0 do
      acc := (lp.vars.(j).Lp.v_name, b.vstat.(j)) :: !acc
    done;
    !acc

  let of_assoc (lp : Lp.t) assoc =
    let n = Lp.nvars lp and m = Lp.nrows lp in
    let ncols = n + m in
    let tbl = Hashtbl.create (max 16 (List.length assoc)) in
    List.iter (fun (name, s) -> Hashtbl.replace tbl name s) assoc;
    let vstat = Array.make ncols At_lower in
    let patched = ref false in
    Array.iteri
      (fun j (v : Lp.var) ->
        match Hashtbl.find_opt tbl v.Lp.v_name with
        | Some s -> vstat.(j) <- s
        | None ->
          (* new column: nonbasic at a bound (normalised on intake) *)
          patched := true)
      lp.vars;
    Array.iteri
      (fun r (row : Lp.row) ->
        match Hashtbl.find_opt tbl row.Lp.r_name with
        | Some s -> vstat.(n + r) <- s
        | None ->
          (* new row: its slack starts basic, absorbing the row *)
          vstat.(n + r) <- Basic;
          patched := true)
      lp.rows;
    (* The basic set must have exactly [m] members before factorisation.
       Demote surplus basics highest column index first (slacks before
       structurals); fill a deficit by promoting nonbasic slacks lowest
       row first — there is always one, since [m] slacks exist. *)
    let nbasic = ref 0 in
    Array.iter (fun s -> if s = Basic then incr nbasic) vstat;
    if !nbasic <> m then patched := true;
    let j = ref (ncols - 1) in
    while !nbasic > m && !j >= 0 do
      if vstat.(!j) = Basic then begin
        vstat.(!j) <- At_lower;
        decr nbasic
      end;
      decr j
    done;
    let r = ref 0 in
    while !nbasic < m && !r < m do
      if vstat.(n + !r) <> Basic then begin
        vstat.(n + !r) <- Basic;
        incr nbasic
      end;
      incr r
    done;
    let basic = Array.make m 0 in
    let pos = ref 0 in
    Array.iteri
      (fun j s ->
        if s = Basic then begin
          basic.(!pos) <- j;
          incr pos
        end)
      vstat;
    (({ vstat; basic } : basis), if !patched then `Patched else `Exact)

  (* The crash basis of a point: every slack basic, so the factorisation
     is the identity and the slacks absorb the row activities; each
     structural column nonbasic at the bound the point sits on. *)
  let of_point (lp : Lp.t) x =
    let n = Lp.nvars lp and m = Lp.nrows lp in
    if Array.length x <> n then
      invalid_arg "Simplex.Basis.of_point: point does not match the LP shape";
    if
      Array.for_all2
        (fun (v : Lp.var) xj -> xj = v.lower || xj = v.upper)
        lp.vars x
    then
      let vstat =
        Array.init (n + m) (fun j ->
            if j >= n then Basic
            else if x.(j) = lp.vars.(j).Lp.lower then At_lower
            else At_upper)
      in
      Some { vstat; basic = Array.init m (fun r -> n + r) }
    else None

  let to_string (lp : Lp.t) (b : basis) =
    let n = Lp.nvars lp and m = Lp.nrows lp in
    if Array.length b.vstat <> n + m then
      invalid_arg "Simplex.Basis.to_string: basis does not match the LP shape";
    let buf = Buffer.create (16 * (n + m)) in
    Buffer.add_string buf "# optrouter basis v1\n";
    for j = 0 to n - 1 do
      Buffer.add_string buf
        (Printf.sprintf "v %s %s\n" lp.vars.(j).Lp.v_name
           (status_code b.vstat.(j)))
    done;
    for r = 0 to m - 1 do
      Buffer.add_string buf
        (Printf.sprintf "r %s %s\n" lp.rows.(r).Lp.r_name
           (status_code b.vstat.(n + r)))
    done;
    Buffer.contents buf

  let of_string (lp : Lp.t) text =
    let lines = String.split_on_char '\n' text in
    let parse (acc, lineno, err) line =
      let lineno = lineno + 1 in
      match err with
      | Some _ -> (acc, lineno, err)
      | None -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then (acc, lineno, None)
        else
          match String.split_on_char ' ' line with
          | [ ("v" | "r"); name; code ] -> (
            match status_of_code code with
            | Some s -> ((name, s) :: acc, lineno, None)
            | None ->
              ( acc,
                lineno,
                Some (Printf.sprintf "line %d: bad status %S" lineno code) ))
          | _ ->
            ( acc,
              lineno,
              Some (Printf.sprintf "line %d: expected 'v|r NAME B|L|U|F'" lineno)
            ))
    in
    let acc, _, err = List.fold_left parse ([], 0, None) lines in
    match err with
    | Some e -> Error e
    | None -> Ok (of_assoc lp (List.rev acc))
end

let verify_optimal ?(tol = 1e-6) (lp : Lp.t) (res : result) =
  if res.status <> Optimal then Error "status is not Optimal"
  else if not (Lp.is_feasible ~tol lp res.x) then Error "solution is infeasible"
  else begin
    let n = Lp.nvars lp in
    let d = Array.map (fun (v : Lp.var) -> v.obj) lp.vars in
    Array.iteri
      (fun r (row : Lp.row) ->
        Array.iter
          (fun (j, a) -> d.(j) <- d.(j) -. (a *. res.duals.(r)))
          row.coeffs;
        ignore r)
      lp.rows;
    let problems = ref [] in
    for j = 0 to n - 1 do
      let v = lp.vars.(j) in
      let x = res.x.(j) in
      let at_lower = x <= v.lower +. tol in
      let at_upper = x >= v.upper -. tol in
      let ok =
        (at_lower && d.(j) >= -.tol)
        || (at_upper && d.(j) <= tol)
        || Float.abs d.(j) <= tol
      in
      if not ok then
        problems :=
          Printf.sprintf "var %s: x=%g d=%g bounds [%g, %g]" v.v_name x d.(j)
            v.lower v.upper
          :: !problems
    done;
    Array.iteri
      (fun r (row : Lp.row) ->
        let activity = Lp.row_activity lp row res.x in
        let y = res.duals.(r) in
        let ok =
          match row.sense with
          | Lp.Eq -> true
          | Lp.Le ->
            (* inactive rows need zero multipliers; active Le rows need
               y <= 0 in a minimisation problem with a.x + s = b, s >= 0 *)
            if activity < row.rhs -. tol then Float.abs y <= tol else y <= tol
          | Lp.Ge ->
            if activity > row.rhs +. tol then Float.abs y <= tol else y >= -.tol
        in
        if not ok then
          problems :=
            Printf.sprintf "row %s: activity=%g rhs=%g y=%g" row.r_name activity
              row.rhs y
            :: !problems)
      lp.rows;
    match !problems with
    | [] -> Ok ()
    | p :: _ -> Error p
  end
