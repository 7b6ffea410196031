module Log = Optrouter_report.Report.Log

type outcome = Proved_optimal | Feasible | Infeasible | Unbounded | Unknown

type result = {
  outcome : outcome;
  objective : float;
  x : float array;
  nodes : int;
  best_bound : float;
  simplex_iterations : int;
  root_lp_iters : int;
  root_bound_flips : int;
  root_warm : Simplex.warm;
  root_basis : Simplex.basis option;
  workers : int;
  steals : int;
  solver_busy_s : float;
  solver_wall_s : float;
}

type params = {
  max_nodes : int;
  time_limit_s : float option;
  integrality_tol : float;
  solver_jobs : int;
  simplex : Simplex.Params.t;
}

let default_params =
  {
    max_nodes = 500_000;
    time_limit_s = None;
    integrality_tol = 1e-6;
    solver_jobs = 1;
    simplex = Simplex.Params.default;
  }

let make_params ?(max_nodes = default_params.max_nodes) ?time_limit_s
    ?(integrality_tol = default_params.integrality_tol)
    ?(solver_jobs = default_params.solver_jobs)
    ?(simplex = default_params.simplex) () =
  { max_nodes; time_limit_s; integrality_tol; solver_jobs; simplex }

(* Wall clock for the time budget: CPU time is meaningless as a deadline
   when several solves share the process (domain-parallel sweeps), and
   [Unix.gettimeofday] is the only sub-second clock the stdlib exposes
   per-process rather than per-thread. *)
let now () = Unix.gettimeofday ()

let is_near_integer tol v = Float.abs (v -. Float.round v) <= tol

(* LP bounds may be rounded up to the next integer only when the objective
   is guaranteed integral at every feasible integral point: each variable
   with a nonzero cost must be an integer variable with an integer cost. *)
let objective_is_integral (lp : Lp.t) =
  Array.for_all
    (fun (v : Lp.var) ->
      v.obj = 0.0 || (v.kind = Lp.Integer && is_near_integer 1e-12 v.obj))
    lp.vars

(* Fallback branching rule: fractionality weighted by objective
   coefficient, so expensive decisions (vias, in the routing instances)
   are fixed first — they move the bound fastest. The search proper uses
   pseudo-costs once both directions of a variable have been observed;
   until then it scores exactly like this function. *)
let most_fractional tol (lp : Lp.t) x =
  let best = ref None in
  Array.iteri
    (fun j (v : Lp.var) ->
      if v.kind = Lp.Integer then begin
        (* [Float.floor] directly: an int_of_float round-trip is undefined
           for values outside the native int range. *)
        let f = x.(j) -. Float.floor x.(j) in
        let dist = Float.min f (1.0 -. f) in
        if dist > tol then begin
          let score = dist *. (1.0 +. Float.abs v.obj) in
          match !best with
          | Some (_, s) when s >= score -> ()
          | Some _ | None -> best := Some (j, score)
        end
      end)
    lp.vars;
  Option.map fst !best

(* ------------------------------------------------------------------ *)
(* Search nodes: bound-delta chains                                    *)
(* ------------------------------------------------------------------ *)

(* A node stores only the single bound its branch tightened plus a parent
   pointer, so node creation is O(1) instead of the former pair of
   O(nvars) [Array.copy]. Bounds are materialised into per-worker scratch
   arrays when (and only when) the node's LP is actually solved. *)
type delta =
  | Root
  | Raised_lo of { bvar : int; bval : float; parent : delta }
  | Lowered_up of { bvar : int; bval : float; parent : delta }

type node = {
  deltas : delta;
  depth : int;
  parent_bound : float;  (** LP objective of the parent, a valid lower bound *)
  warm : Simplex.basis option;
  pc_var : int;  (** branching variable that created this node; -1 at root *)
  pc_up : bool;  (** true for the ceil (up) branch *)
  pc_frac : float;  (** distance the branch moved the variable: f or 1-f *)
  pusher : int;  (** worker that pushed the node; -1 for the root *)
}

(* Walking leaf -> root with max/min keeps the tightest bound per
   variable, so the application order of a chain that tightens the same
   variable twice does not matter. *)
let materialize ~root_lo ~root_up lo up deltas =
  let n = Array.length root_lo in
  Array.blit root_lo 0 lo 0 n;
  Array.blit root_up 0 up 0 n;
  let rec apply = function
    | Root -> ()
    | Raised_lo { bvar; bval; parent } ->
      if bval > lo.(bvar) then lo.(bvar) <- bval;
      apply parent
    | Lowered_up { bvar; bval; parent } ->
      if bval < up.(bvar) then up.(bvar) <- bval;
      apply parent
  in
  apply deltas

(* ------------------------------------------------------------------ *)
(* Shared search state                                                 *)
(* ------------------------------------------------------------------ *)

(* All cross-worker state of one solve. The frontier is a best-bound
   min-heap under [fmutex]; termination is detected with the classic
   busy-counter scheme (idle workers wait until either work appears or
   every worker is idle with an empty frontier). The incumbent objective
   lives in an [Atomic] so bound checks never take a lock; the solution
   vector itself is published under [imutex]. *)
type shared = {
  prm : params;
  lp : Lp.t;
  round_bound : float -> float;
  root_lo : float array;
  root_up : float array;
  deadline : float option;
  (* frontier *)
  fmutex : Mutex.t;
  fcond : Condition.t;
  mutable heap : node array;
  mutable hsize : int;
  mutable busy : int;
  stop : bool Atomic.t;
  (* incumbent *)
  best_obj : float Atomic.t;
  imutex : Mutex.t;
  mutable best : (float * float array) option;
  (* counters *)
  nodes : int Atomic.t;
  iters : int Atomic.t;
  steals : int Atomic.t;
  hit_limit : bool Atomic.t;
  root_unbounded : bool Atomic.t;
  (* Root-relaxation telemetry: the depth-0 node is processed exactly
     once, so this is written once; the mutex only orders that write
     against the driver's read after the workers join. *)
  rmutex : Mutex.t;
  mutable root_info : (int * int * Simplex.warm * Simplex.basis option) option;
  (* pseudo-costs: average objective degradation per unit of bound change,
     per variable and direction. Updated once per solved node, so one
     small mutex is cheap relative to the LP solves it guards. *)
  pmutex : Mutex.t;
  pc_sum_dn : float array;
  pc_cnt_dn : int array;
  pc_sum_up : float array;
  pc_cnt_up : int array;
}

let heap_swap sh i j =
  let tmp = sh.heap.(i) in
  sh.heap.(i) <- sh.heap.(j);
  sh.heap.(j) <- tmp

let heap_push sh nd =
  if sh.hsize = Array.length sh.heap then begin
    let cap = max 64 (2 * sh.hsize) in
    let bigger = Array.make cap nd in
    Array.blit sh.heap 0 bigger 0 sh.hsize;
    sh.heap <- bigger
  end;
  sh.heap.(sh.hsize) <- nd;
  sh.hsize <- sh.hsize + 1;
  let i = ref (sh.hsize - 1) in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if sh.heap.(p).parent_bound > sh.heap.(!i).parent_bound then begin
      heap_swap sh p !i;
      i := p
    end
    else continue := false
  done

let heap_pop sh =
  let top = sh.heap.(0) in
  sh.hsize <- sh.hsize - 1;
  sh.heap.(0) <- sh.heap.(sh.hsize);
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let s = ref !i in
    if l < sh.hsize && sh.heap.(l).parent_bound < sh.heap.(!s).parent_bound then
      s := l;
    if r < sh.hsize && sh.heap.(r).parent_bound < sh.heap.(!s).parent_bound then
      s := r;
    if !s <> !i then begin
      heap_swap sh !s !i;
      i := !s
    end
    else continue := false
  done;
  top

let push_frontier sh nd =
  Mutex.lock sh.fmutex;
  heap_push sh nd;
  Condition.signal sh.fcond;
  Mutex.unlock sh.fmutex

(* Wind the search down (limit, unbounded root, numerical dead end). The
   flag is set under the frontier mutex so no waiter can miss the
   broadcast between testing the predicate and blocking. *)
let request_stop sh =
  Mutex.lock sh.fmutex;
  Atomic.set sh.stop true;
  Condition.broadcast sh.fcond;
  Mutex.unlock sh.fmutex

(* Pop the globally best-bound node, blocking while other workers might
   still produce work. Returns [None] exactly when the search is over:
   stop requested, or frontier empty with every worker idle. *)
let take sh =
  Mutex.lock sh.fmutex;
  let rec wait () =
    if Atomic.get sh.stop then None
    else if sh.hsize > 0 then Some (heap_pop sh)
    else if sh.busy = 0 then None
    else begin
      Condition.wait sh.fcond sh.fmutex;
      wait ()
    end
  in
  let nd = wait () in
  (match nd with
  | Some _ -> sh.busy <- sh.busy + 1
  | None -> Condition.broadcast sh.fcond);
  Mutex.unlock sh.fmutex;
  nd

let release_busy sh =
  Mutex.lock sh.fmutex;
  sh.busy <- sh.busy - 1;
  if sh.busy = 0 && sh.hsize = 0 then Condition.broadcast sh.fcond;
  Mutex.unlock sh.fmutex

let out_of_time sh =
  match sh.deadline with None -> false | Some d -> now () > d

(* New incumbent. The objective [Atomic] is only ever lowered, with a CAS
   retry loop so a concurrent reader can never observe it move up; the
   (objective, point) pair is kept consistent under [imutex]. Writers
   also hold [imutex] around the CAS, so the pair and the atomic agree
   whenever the mutex is free. *)
let record_incumbent sh obj x =
  if obj < Atomic.get sh.best_obj -. 1e-9 then begin
    Mutex.lock sh.imutex;
    let better =
      match sh.best with
      | Some (b, _) -> obj < b -. 1e-9
      | None -> obj < Atomic.get sh.best_obj -. 1e-9
    in
    if better then begin
      sh.best <- Some (obj, Array.copy x);
      let rec lower () =
        let cur = Atomic.get sh.best_obj in
        if obj < cur && not (Atomic.compare_and_set sh.best_obj cur obj) then
          lower ()
      in
      lower ();
      Log.debug ~src:"milp" (fun () ->
          Printf.sprintf "node %d: incumbent %.6g" (Atomic.get sh.nodes) obj)
    end;
    Mutex.unlock sh.imutex
  end

let update_pseudocost sh nd obj =
  if nd.pc_var >= 0 then begin
    let unit = Float.max 0.0 (obj -. nd.parent_bound) /. nd.pc_frac in
    Mutex.lock sh.pmutex;
    if nd.pc_up then begin
      sh.pc_sum_up.(nd.pc_var) <- sh.pc_sum_up.(nd.pc_var) +. unit;
      sh.pc_cnt_up.(nd.pc_var) <- sh.pc_cnt_up.(nd.pc_var) + 1
    end
    else begin
      sh.pc_sum_dn.(nd.pc_var) <- sh.pc_sum_dn.(nd.pc_var) +. unit;
      sh.pc_cnt_dn.(nd.pc_var) <- sh.pc_cnt_dn.(nd.pc_var) + 1
    end;
    Mutex.unlock sh.pmutex
  end

(* Pseudo-cost branching (product of estimated up/down degradations) over
   the variables whose both directions have been observed; variables
   without history score with the [most_fractional] rule. A reliable
   pseudo-cost pick always wins over the fallback. *)
let branch_var sh x =
  let tol = sh.prm.integrality_tol in
  let best_pc = ref None and best_mf = ref None in
  Mutex.lock sh.pmutex;
  Array.iteri
    (fun j (v : Lp.var) ->
      if v.Lp.kind = Lp.Integer then begin
        let f = x.(j) -. Float.floor x.(j) in
        let dist = Float.min f (1.0 -. f) in
        if dist > tol then begin
          let mf = dist *. (1.0 +. Float.abs v.Lp.obj) in
          (match !best_mf with
          | Some (_, s) when s >= mf -> ()
          | Some _ | None -> best_mf := Some (j, mf));
          if sh.pc_cnt_dn.(j) > 0 && sh.pc_cnt_up.(j) > 0 then begin
            let dn =
              sh.pc_sum_dn.(j) /. float_of_int sh.pc_cnt_dn.(j) *. f
            in
            let up =
              sh.pc_sum_up.(j) /. float_of_int sh.pc_cnt_up.(j) *. (1.0 -. f)
            in
            let score = Float.max dn 1e-12 *. Float.max up 1e-12 in
            match !best_pc with
            | Some (_, s) when s >= score -> ()
            | Some _ | None -> best_pc := Some (j, score)
          end
        end
      end)
    sh.lp.Lp.vars;
  Mutex.unlock sh.pmutex;
  match (!best_pc, !best_mf) with
  | Some (j, _), _ -> Some j
  | None, Some (j, _) -> Some j
  | None, None -> None

(* Children of a branching: the rounding-preferred side is returned first
   and kept by the worker (plunging — a local DFS dive that reuses the hot
   warm basis); the sibling goes to the shared best-bound frontier where
   any worker may steal it. *)
let children nd (res : Simplex.result) j wid =
  let xj = res.Simplex.x.(j) in
  let fl = Float.floor xj and ce = Float.ceil xj in
  let f = xj -. fl in
  let mk deltas pc_up pc_frac =
    {
      deltas;
      depth = nd.depth + 1;
      parent_bound = res.Simplex.objective;
      warm = Some res.Simplex.basis;
      pc_var = j;
      pc_up;
      pc_frac;
      pusher = wid;
    }
  in
  let down = mk (Lowered_up { bvar = j; bval = fl; parent = nd.deltas }) false f in
  let up = mk (Raised_lo { bvar = j; bval = ce; parent = nd.deltas }) true (1.0 -. f) in
  if f <= 0.5 then (down, up) else (up, down)

let solve_lp sh inst warm lo up =
  let sp = sh.prm.simplex in
  let attempt basis =
    let params =
      {
        sp with
        Simplex.Params.basis;
        lower = Some lo;
        upper = Some up;
        deadline_s =
          (* the B&B time limit wins over any caller-supplied deadline *)
          (match sh.deadline with
          | Some _ as d -> d
          | None -> sp.Simplex.Params.deadline_s);
      }
    in
    Simplex.Instance.solve ~params inst
  in
  match attempt warm with
  | r -> Some r
  | exception Simplex.Numerical_failure _ when out_of_time sh ->
    (* past the global budget: do not even try a cold re-solve *)
    None
  | exception Simplex.Numerical_failure _ -> (
    (* A stale warm basis occasionally defeats the factorisation; a cold
       start is slower but always well-posed. If even that fails, the
       node cannot be resolved safely: the search degrades to a limit. *)
    match attempt None with
    | r when Option.is_some warm -> Some { r with Simplex.warm = `Abandoned }
    | r -> Some r
    | exception Simplex.Numerical_failure _ -> None)

(* Process one node; the result is the child to plunge into, or [None]
   when this subtree is exhausted, pruned, or the search is stopping.
   Mirrors the serial solver exactly: limits are checked before the node
   counts, and a node that cannot be processed (limit, numerical dead
   end, wind-down) goes back to the frontier so the final best bound
   stays honest. *)
let process sh wid inst lo up nd =
  if Atomic.get sh.stop then begin
    push_frontier sh nd;
    None
  end
  else if Atomic.get sh.nodes >= sh.prm.max_nodes || out_of_time sh then begin
    push_frontier sh nd;
    Atomic.set sh.hit_limit true;
    request_stop sh;
    None
  end
  else begin
    Atomic.incr sh.nodes;
    if sh.round_bound nd.parent_bound < Atomic.get sh.best_obj -. 1e-9 then begin
      materialize ~root_lo:sh.root_lo ~root_up:sh.root_up lo up nd.deltas;
      match solve_lp sh inst nd.warm lo up with
      | None ->
        push_frontier sh nd;
        Atomic.set sh.hit_limit true;
        request_stop sh;
        None
      | Some res -> (
        ignore (Atomic.fetch_and_add sh.iters res.Simplex.iterations);
        if nd.depth = 0 then begin
          Mutex.lock sh.rmutex;
          sh.root_info <-
            Some
              ( res.Simplex.iterations,
                res.Simplex.bound_flips,
                res.Simplex.warm,
                if res.Simplex.status = Simplex.Optimal then
                  Some res.Simplex.basis
                else None );
          Mutex.unlock sh.rmutex
        end;
        match res.Simplex.status with
        | Simplex.Infeasible -> None
        | Simplex.Unbounded ->
          (* bounds only tighten below the root, so an unbounded child
             implies an unbounded root; treat conservatively *)
          Atomic.set sh.root_unbounded true;
          request_stop sh;
          None
        | Simplex.Optimal ->
          update_pseudocost sh nd res.Simplex.objective;
          let bound = sh.round_bound res.Simplex.objective in
          if bound < Atomic.get sh.best_obj -. 1e-9 then begin
            match branch_var sh res.Simplex.x with
            | None ->
              record_incumbent sh res.Simplex.objective res.Simplex.x;
              None
            | Some j ->
              let keep, defer = children nd res j wid in
              push_frontier sh defer;
              Some keep
          end
          else None)
    end
    else None
  end

(* Worker body, run on the calling domain (wid 0) and [jobs - 1] spawned
   domains. Each worker owns a private simplex instance and scratch bound
   arrays; shared nodes are immutable, so the only cross-domain traffic
   is the frontier, the incumbent and a few atomics. Returns the busy
   time: seconds spent holding a node, excluding frontier waits. *)
let worker sh wid () =
  let inst = Simplex.Instance.create sh.lp in
  let nv = Array.length sh.root_lo in
  let lo = Array.make nv 0.0 and up = Array.make nv 0.0 in
  let busy = ref 0.0 in
  let rec top () =
    match take sh with
    | None -> ()
    | Some nd ->
      if nd.pusher >= 0 && nd.pusher <> wid then Atomic.incr sh.steals;
      let t0 = now () in
      let rec plunge nd =
        match process sh wid inst lo up nd with
        | Some next -> plunge next
        | None -> ()
      in
      plunge nd;
      busy := !busy +. (now () -. t0);
      release_busy sh;
      top ()
  in
  top ();
  !busy

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let solve ?(params = default_params) ?initial ?cutoff ?root_basis (lp : Lp.t) =
  let n = Lp.nvars lp in
  let start = now () in
  let integral_obj = objective_is_integral lp in
  let round_bound b = if integral_obj then Float.ceil (b -. 1e-6) else b in
  let initial =
    match initial with
    | Some x0
      when Array.length x0 = n
           && Lp.is_feasible lp x0
           && Lp.is_integral ~tol:params.integrality_tol lp x0 ->
      Some x0
    | Some _ | None -> None
  in
  let initial_best =
    Option.bind initial (fun x0 ->
        let obj = Lp.objective_value lp x0 in
        if obj < Option.value cutoff ~default:infinity then
          Some (obj, Array.copy x0)
        else None)
  in
  (* Without a related basis, the root LP starts from the crash basis at
     the feasible point's bounds: primal feasible by construction, so the
     primal skips phase 1. *)
  let crash =
    match root_basis with
    | Some _ -> None
    | None -> Option.bind initial (Simplex.Basis.of_point lp)
  in
  let best_obj0 =
    match initial_best with
    | Some (obj, _) -> obj
    | None -> Option.value cutoff ~default:infinity
  in
  (* The pool's deliberate non-clamping rationale applies here too: an
     oversubscribed solve time-slices, a clamped one silently loses its
     parallel path. The cap only guards absurd requests. *)
  let jobs = max 1 (min params.solver_jobs 128) in
  let root =
    {
      deltas = Root;
      depth = 0;
      parent_bound = neg_infinity;
      warm = (match crash with Some _ -> crash | None -> root_basis);
      pc_var = -1;
      pc_up = false;
      pc_frac = 1.0;
      pusher = -1;
    }
  in
  let sh =
    {
      prm = params;
      lp;
      round_bound;
      root_lo = Array.map (fun (v : Lp.var) -> v.lower) lp.vars;
      root_up = Array.map (fun (v : Lp.var) -> v.upper) lp.vars;
      deadline = Option.map (fun l -> start +. l) params.time_limit_s;
      fmutex = Mutex.create ();
      fcond = Condition.create ();
      heap = [||];
      hsize = 0;
      busy = 0;
      stop = Atomic.make false;
      best_obj = Atomic.make best_obj0;
      imutex = Mutex.create ();
      best = initial_best;
      nodes = Atomic.make 0;
      iters = Atomic.make 0;
      steals = Atomic.make 0;
      hit_limit = Atomic.make false;
      root_unbounded = Atomic.make false;
      rmutex = Mutex.create ();
      root_info = None;
      pmutex = Mutex.create ();
      pc_sum_dn = Array.make n 0.0;
      pc_cnt_dn = Array.make n 0;
      pc_sum_up = Array.make n 0.0;
      pc_cnt_up = Array.make n 0;
    }
  in
  heap_push sh root;
  let helpers =
    List.init (jobs - 1) (fun i -> Domain.spawn (worker sh (i + 1)))
  in
  let busy0 = worker sh 0 () in
  let solver_busy_s =
    List.fold_left (fun acc d -> acc +. Domain.join d) busy0 helpers
  in
  let solver_wall_s = now () -. start in
  (* Every worker has joined: the shared state is quiescent from here. *)
  let hit_limit = Atomic.get sh.hit_limit in
  let root_unbounded = Atomic.get sh.root_unbounded in
  let incumbent_obj = Atomic.get sh.best_obj in
  let best_bound =
    if root_unbounded then neg_infinity
    else begin
      let acc = ref incumbent_obj in
      for i = 0 to sh.hsize - 1 do
        acc := Float.min !acc (round_bound sh.heap.(i).parent_bound)
      done;
      !acc
    end
  in
  let frontier_empty = sh.hsize = 0 in
  let outcome, objective, x =
    if root_unbounded then (Unbounded, neg_infinity, Array.make n 0.0)
    else
      match sh.best with
      | Some (obj, bx) when (not hit_limit) && frontier_empty ->
        (Proved_optimal, obj, bx)
      | Some (obj, bx) -> (Feasible, obj, bx)
      | None when cutoff <> None && (not hit_limit) && frontier_empty ->
        (* nothing strictly better than the external solution exists *)
        (Proved_optimal, incumbent_obj, [||])
      | None when cutoff <> None -> (Feasible, incumbent_obj, [||])
      | None when (not hit_limit) && frontier_empty ->
        (Infeasible, infinity, Array.make n 0.0)
      | None -> (Unknown, infinity, Array.make n 0.0)
  in
  let root_lp_iters, root_bound_flips, root_warm, root_basis =
    Mutex.lock sh.rmutex;
    let info = sh.root_info in
    Mutex.unlock sh.rmutex;
    match info with
    | Some (it, flips, warm, b) ->
      (* a crash root was given no basis to reuse *)
      (it, flips, (if Option.is_some crash then `Cold else warm), b)
    | None -> (0, 0, `Cold, None)
  in
  {
    outcome;
    objective;
    x;
    nodes = Atomic.get sh.nodes;
    best_bound;
    simplex_iterations = Atomic.get sh.iters;
    root_lp_iters;
    root_bound_flips;
    root_warm;
    root_basis;
    workers = jobs;
    steals = Atomic.get sh.steals;
    solver_busy_s;
    solver_wall_s;
  }
