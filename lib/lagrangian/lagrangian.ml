module Graph = Optrouter_grid.Graph
module Clip = Optrouter_grid.Clip
module Route = Optrouter_grid.Route
module Drc = Optrouter_grid.Drc
module Rules = Optrouter_tech.Rules
module Pqueue = Optrouter_maze.Pqueue
module Maze = Optrouter_maze.Maze
module Log = Optrouter_report.Report.Log

type params = {
  max_iters : int;
  time_limit_s : float option;
  round_every : int;
}

let default_params =
  { max_iters = 150; time_limit_s = Some 60.0; round_every = 20 }

let make_params ?(max_iters = default_params.max_iters)
    ?(time_limit_s = default_params.time_limit_s)
    ?(round_every = default_params.round_every) () =
  { max_iters; time_limit_s; round_every }

(* Largest sink count priced exactly by the Steiner DP, whose table grows
   as 3^sinks; larger nets fall back to a valid single-path lower bound. *)
let dp_sink_cap = 8

(* Penalise-rip-up repair rounds per rounding attempt. *)
let rip_up_rounds = 6

type iter_stat = {
  it : int;
  dual : float;
  best_dual : float;
  primal : int option;
  step : float;
  mult_norm : float;
  busy_s : float;
}

type t = {
  solution : Route.solution option;
  dual_bound : float;
  unreachable : bool;
  iterations : int;
  gap : float option;
  busy_s : float;
  wall_s : float;
  rounding_attempts : int;
  rip_ups : int;
  seeded : bool;
  trace : iter_stat list;
}

(* ------------------------------------------------------------------ *)
(* Reachability: the one infeasibility this mode can prove             *)
(* ------------------------------------------------------------------ *)

let reachable (g : Graph.t) =
  let ok = ref true in
  Array.iteri
    (fun k (net : Graph.net_ctx) ->
      if !ok then begin
        let seen = Array.make g.Graph.nverts false in
        seen.(net.Graph.source) <- true;
        let stack = ref [ net.Graph.source ] in
        let rec drain () =
          match !stack with
          | [] -> ()
          | v :: rest ->
            stack := rest;
            Array.iter
              (fun (gid, other) ->
                if Graph.allowed g k gid && not seen.(other) then begin
                  seen.(other) <- true;
                  stack := other :: !stack
                end)
              g.Graph.adj.(v);
            drain ()
        in
        drain ();
        if Array.exists (fun sv -> not seen.(sv)) net.Graph.sinks then ok := false
      end)
    g.Graph.nets;
  !ok

(* ------------------------------------------------------------------ *)
(* Multiplier-priced per-net subproblems                               *)
(* ------------------------------------------------------------------ *)

(* Node-and-edge-weighted Dijkstra relaxation of [dist] in place: [dist]
   holds the initial labels (infinity elsewhere), [pred] records the
   arrival edge of every improved vertex. The vertex price of a label's
   own vertex is already included in the label; relaxing u -> v pays
   [eprice] of the edge plus [vprice.(v)]. [q] is the caller's queue,
   emptied first.

   The search stops as soon as [stop] is popped with its final label
   ([stop = -1] settles every reachable vertex). That truncation is
   exact for [stop] and for every vertex on its arrival path: those are
   all settled by then, and since every price is non-negative and
   relaxation needs a strict [<], no later step could have changed a
   settled vertex's label or arrival edge. *)
let dijkstra (g : Graph.t) q ~allowed ~eprice ~(vprice : float array) ~stop
    dist pred =
  Pqueue.clear q;
  Array.iteri (fun v d -> if d < infinity then Pqueue.push q d v) dist;
  let settled_stop = ref false in
  while (not !settled_stop) && not (Pqueue.is_empty q) do
    let d = Pqueue.min_key q in
    let v = Pqueue.pop q in
    if d <= dist.(v) then
      if v = stop then settled_stop := true
      else begin
        let adj = g.Graph.adj.(v) in
        for i = 0 to Array.length adj - 1 do
          let gid, other = adj.(i) in
          if allowed gid then begin
            let nd = d +. eprice.(gid) +. vprice.(other) in
            if nd < dist.(other) then begin
              dist.(other) <- nd;
              pred.(other) <- gid;
              Pqueue.push q nd other
            end
          end
        done
      end
  done

(* Exact node-weighted Steiner tree over the net's allowed edges:
   Dreyfus-Wagner dynamic program over sink subsets. [dp.(mask).(v)] is
   the cheapest tree spanning the sinks in [mask] plus [v], vertex
   prices counted once per tree vertex. Arrival bookkeeping: [via] >= 0
   means "came over that edge within the same mask", otherwise
   [sub_of] > 0 names the merged submask (0 = a singleton root).

   The price and the tree read only the full mask's label at the source
   and the arrival path behind it, so the full mask's Dijkstra stops once
   the source settles. For a one-sink net that is its only Dijkstra; the
   smaller masks are read at every vertex by the merges and run in full. *)
let steiner_exact (g : Graph.t) ~allowed ~eprice ~vprice
    (net : Graph.net_ctx) =
  let n = g.Graph.nverts in
  let s = Array.length net.Graph.sinks in
  let full = (1 lsl s) - 1 in
  let dp = Array.init (full + 1) (fun _ -> Array.make n infinity) in
  let via = Array.init (full + 1) (fun _ -> Array.make n (-1)) in
  let sub_of = Array.init (full + 1) (fun _ -> Array.make n 0) in
  let q = Pqueue.create () in
  let stop mask = if mask = full then net.Graph.source else -1 in
  for i = 0 to s - 1 do
    let m = 1 lsl i in
    let dm = dp.(m) in
    dm.(net.Graph.sinks.(i)) <- vprice.(net.Graph.sinks.(i));
    dijkstra g q ~allowed ~eprice ~vprice ~stop:(stop m) dm via.(m)
  done;
  for mask = 1 to full do
    if mask land (mask - 1) <> 0 then begin
      let d = dp.(mask) in
      let vm = via.(mask) in
      let sm = sub_of.(mask) in
      (* merge each unordered pair of complementary submasks once *)
      let sub = ref ((mask - 1) land mask) in
      while !sub > 0 do
        let other = mask lxor !sub in
        if !sub <= other then
          for v = 0 to n - 1 do
            if dp.(!sub).(v) < infinity && dp.(other).(v) < infinity then begin
              let cand = dp.(!sub).(v) +. dp.(other).(v) -. vprice.(v) in
              if cand < d.(v) then begin
                d.(v) <- cand;
                vm.(v) <- -1;
                sm.(v) <- !sub
              end
            end
          done;
        sub := (!sub - 1) land mask
      done;
      dijkstra g q ~allowed ~eprice ~vprice ~stop:(stop mask) d vm
    end
  done;
  let cost = dp.(full).(net.Graph.source) in
  if cost >= infinity then None
  else begin
    let edges = Hashtbl.create 32 in
    let rec collect mask v =
      let gid = via.(mask).(v) in
      if gid >= 0 then begin
        Hashtbl.replace edges gid ();
        collect mask (Graph.other_end g g.Graph.edges.(gid) v)
      end
      else begin
        let sub = sub_of.(mask).(v) in
        if sub > 0 then begin
          collect sub v;
          collect (mask lxor sub) v
        end
      end
    in
    collect full net.Graph.source;
    let tree =
      List.sort Int.compare (Hashtbl.fold (fun gid () acc -> gid :: acc) edges [])
    in
    Some (cost, tree)
  end

(* Beyond the DP cap: a valid per-net lower bound (the costliest of the
   source-to-sink shortest paths — every tree contains each such path)
   plus a greedy nearest-sink tree that only steers the sub-gradient. *)
let steiner_heuristic (g : Graph.t) ~allowed ~eprice ~vprice
    (net : Graph.net_ctx) =
  let n = g.Graph.nverts in
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  let q = Pqueue.create () in
  dist.(net.Graph.source) <- vprice.(net.Graph.source);
  dijkstra g q ~allowed ~eprice ~vprice ~stop:(-1) dist pred;
  let lb =
    Array.fold_left
      (fun acc sv -> Float.max acc dist.(sv))
      0.0 net.Graph.sinks
  in
  if lb >= infinity then None
  else begin
    let in_tree = Array.make n false in
    in_tree.(net.Graph.source) <- true;
    let edges = Hashtbl.create 32 in
    let remaining = ref (Array.to_list net.Graph.sinks) in
    let failed = ref false in
    while (not !failed) && !remaining <> [] do
      let d2 = Array.make n infinity in
      let p2 = Array.make n (-1) in
      Array.iteri (fun v t -> if t then d2.(v) <- 0.0) in_tree;
      dijkstra g q ~allowed ~eprice ~vprice ~stop:(-1) d2 p2;
      let bestv = ref (-1) in
      let bestd = ref infinity in
      List.iter
        (fun sv ->
          if d2.(sv) < !bestd then begin
            bestd := d2.(sv);
            bestv := sv
          end)
        !remaining;
      if !bestv < 0 then failed := true
      else begin
        let rec back v =
          if not in_tree.(v) then begin
            in_tree.(v) <- true;
            let gid = p2.(v) in
            if gid >= 0 then begin
              Hashtbl.replace edges gid ();
              back (Graph.other_end g g.Graph.edges.(gid) v)
            end
          end
        in
        back !bestv;
        remaining := List.filter (fun t -> t <> !bestv) !remaining
      end
    done;
    let tree =
      List.sort Int.compare (Hashtbl.fold (fun gid () acc -> gid :: acc) edges [])
    in
    Some (lb, tree)
  end

let price_net (g : Graph.t) ~eprice ~vprice k =
  let net = g.Graph.nets.(k) in
  let allowed = Graph.allowed g k in
  if Array.length net.Graph.sinks = 0 then Some (0.0, [])
  else if Array.length net.Graph.sinks <= dp_sink_cap then
    steiner_exact g ~allowed ~eprice ~vprice net
  else steiner_heuristic g ~allowed ~eprice ~vprice net

(* ------------------------------------------------------------------ *)
(* Sub-gradient loop                                                   *)
(* ------------------------------------------------------------------ *)

let empty_result ~unreachable ~wall_s =
  {
    solution = None;
    dual_bound = 0.0;
    unreachable;
    iterations = 0;
    gap = None;
    busy_s = 0.0;
    wall_s;
    rounding_attempts = 0;
    rip_ups = 0;
    seeded = false;
    trace = [];
  }

let norm2 a = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 a

let solve ?(params = default_params) ?seed ~rules (g : Graph.t) =
  let t0 = Unix.gettimeofday () in
  if not (reachable g) then
    empty_result ~unreachable:true ~wall_s:(Unix.gettimeofday () -. t0)
  else begin
    let nnets = Array.length g.Graph.nets in
    let nedges = Graph.num_edges g in
    let ngrid =
      g.Graph.clip.Clip.cols * g.Graph.clip.Clip.rows
      * g.Graph.clip.Clip.layers
    in
    (* Price edges in the objective the caller asked for — the same
       coefficients Formulate puts on the e-binaries — so the dual bound
       and the ILP optimum live in the same units under via objectives. *)
    let cost_f =
      Array.map
        (fun (e : Graph.edge) ->
          let via =
            match e.Graph.kind with
            | Graph.Via _ | Graph.Shape_lower _ -> true
            | Graph.Wire _ | Graph.Shape_upper _ | Graph.Access -> false
          in
          Rules.objective_coeff rules.Rules.objective ~via ~cost:e.Graph.cost)
        g.Graph.edges
    in
    let obj_of (m : Route.metrics) =
      Rules.objective_value rules.Rules.objective ~wirelength:m.Route.wirelength
        ~vias:m.Route.vias ~cost:m.Route.cost
    in
    let lambda = Array.make nedges 0.0 in
    let mu = Array.make ngrid 0.0 in
    let have_dual = ref false in
    let best_raw = ref 0.0 in
    let best_sol = ref None in
    let seeded =
      match seed with
      | None -> false
      | Some s -> (
        (* A clean seed is an incumbent (upper bound), never a proof. *)
        match Drc.check ~rules g s with
        | [] ->
          best_sol :=
            Some { Route.routes = s.Route.routes;
                   metrics = Route.metrics_of g s.Route.routes };
          true
        | _ :: _ -> false
        | exception _foreign_seed_exn -> false)
    in
    (* A maze-router incumbent seeds the upper bound: its solutions are
       DRC-clean or absent, and the Polyak step wants a finite UB. *)
    (match (Maze.route ~rules g).Maze.solution with
    | None -> ()
    | Some sol -> (
      match !best_sol with
      | Some (b : Route.solution)
        when obj_of b.Route.metrics <= obj_of sol.Route.metrics ->
        ()
      | Some _ | None -> best_sol := Some sol));
    let alpha = ref 2.0 in
    let no_improve = ref 0 in
    let busy_total = ref 0.0 in
    let rip_ups = ref 0 in
    let attempts = ref 0 in
    let trace = ref [] in
    let iters = ref 0 in
    let last_costs = Array.make (max nnets 1) 0.0 in
    let deadline = Option.map (fun s -> t0 +. s) params.time_limit_s in
    let over_deadline () =
      match deadline with
      | None -> false
      | Some d -> Unix.gettimeofday () > d
    in
    (* The integral ceil-lift is only valid when every objective
       coefficient is an integer (wirelength, via-count, integral via
       weights); a fractional [Via_weighted] keeps the raw dual. *)
    let lifted () =
      if not !have_dual then 0.0
      else if Rules.objective_integral rules.Rules.objective then
        Float.max 0.0 (Float.ceil (!best_raw -. 1e-6))
      else Float.max 0.0 !best_raw
    in
    let primal_cost () =
      Option.map (fun (s : Route.solution) -> s.Route.metrics.cost) !best_sol
    in
    let primal_obj () =
      Option.map (fun (s : Route.solution) -> obj_of s.Route.metrics) !best_sol
    in
    (* The search stops once the lifted dual bound meets the primal
       objective: the rounded routing is then provably optimal. *)
    let closed () =
      match primal_obj () with
      | None -> false
      | Some p -> lifted () >= p -. 1e-9
    in
    (* One maze attempt priced by the multipliers (lambda per edge, mu
       per grid vertex), routing and rerouting the nets in descending
       order of their last subproblem cost. *)
    let attempt_round () =
      attempts := !attempts + 1;
      let order = Array.init nnets Fun.id in
      Array.sort
        (fun a b ->
          match Float.compare last_costs.(b) last_costs.(a) with
          | 0 -> Int.compare a b
          | c -> c)
        order;
      let vertex_cost = Array.make g.Graph.nverts 0.0 in
      Array.blit mu 0 vertex_cost 0 ngrid;
      let rounded, ripped =
        Maze.attempt ~rules ~edge_cost:lambda ~vertex_cost ~order
          ~reorder:(fun () -> order) ~rounds:rip_up_rounds g
      in
      rip_ups := !rip_ups + ripped;
      match rounded with
      | None -> ()
      | Some sol -> (
        match !best_sol with
        | Some (b : Route.solution)
          when obj_of b.Route.metrics <= obj_of sol.Route.metrics ->
          ()
        | Some _ | None ->
          Log.debug ~src:"lagrangian" (fun () ->
              Printf.sprintf "rounded primal: cost=%d" sol.Route.metrics.cost);
          best_sol := Some sol)
    in
    let stop = ref false in
    while (not !stop) && !iters < params.max_iters do
      let it = !iters in
      let eprice =
        Array.init nedges (fun gid -> cost_f.(gid) +. lambda.(gid))
      in
      let vprice = Array.make g.Graph.nverts 0.0 in
      Array.blit mu 0 vprice 0 ngrid;
      let s0 = Unix.gettimeofday () in
      let results = Array.init nnets (price_net g ~eprice ~vprice) in
      let iter_busy = Unix.gettimeofday () -. s0 in
      busy_total := !busy_total +. iter_busy;
      let edge_use = Array.make nedges 0 in
      let vert_use = Array.make ngrid 0 in
      let vert_mark = Array.make g.Graph.nverts (-1) in
      let sum_costs = ref 0.0 in
      Array.iteri
        (fun k r ->
          match r with
          | None -> () (* impossible after the reachability pre-check *)
          | Some (c, tree) ->
            last_costs.(k) <- c;
            sum_costs := !sum_costs +. c;
            List.iter
              (fun gid ->
                edge_use.(gid) <- edge_use.(gid) + 1;
                let e = g.Graph.edges.(gid) in
                let touch v =
                  if v < ngrid && vert_mark.(v) <> k then begin
                    vert_mark.(v) <- k;
                    vert_use.(v) <- vert_use.(v) + 1
                  end
                in
                touch e.Graph.u;
                touch e.Graph.v)
              tree)
        results;
      let sum_l = Array.fold_left ( +. ) 0.0 lambda in
      let sum_m = Array.fold_left ( +. ) 0.0 mu in
      let l = !sum_costs -. sum_l -. sum_m in
      if (not !have_dual) || l > !best_raw +. 1e-9 then begin
        best_raw := (if !have_dual then Float.max l !best_raw else l);
        have_dual := true;
        no_improve := 0
      end
      else begin
        incr no_improve;
        if !no_improve >= 8 then begin
          alpha := Float.max 1e-4 (!alpha *. 0.5);
          no_improve := 0
        end
      end;
      (* Projected sub-gradient step (Polyak): only active components —
         violated rows or positive multipliers — enter the norm. *)
      let gnorm2 = ref 0.0 in
      for gid = 0 to nedges - 1 do
        match g.Graph.edges.(gid).Graph.net_only with
        | Some _ -> ()
        | None ->
          if edge_use.(gid) > 1 || lambda.(gid) > 0.0 then begin
            let gv = float_of_int (edge_use.(gid) - 1) in
            gnorm2 := !gnorm2 +. (gv *. gv)
          end
      done;
      for v = 0 to ngrid - 1 do
        if vert_use.(v) > 1 || mu.(v) > 0.0 then begin
          let gv = float_of_int (vert_use.(v) - 1) in
          gnorm2 := !gnorm2 +. (gv *. gv)
        end
      done;
      let ub_est =
        match primal_obj () with
        | Some p -> p
        | None -> l +. Float.max 1.0 (0.1 *. Float.abs l)
      in
      let step =
        if !gnorm2 <= 0.0 then 0.0
        else Float.max 0.0 (!alpha *. (ub_est -. l) /. !gnorm2)
      in
      if step > 0.0 then begin
        for gid = 0 to nedges - 1 do
          match g.Graph.edges.(gid).Graph.net_only with
          | Some _ -> ()
          | None ->
            lambda.(gid) <-
              Float.max 0.0
                (lambda.(gid) +. (step *. float_of_int (edge_use.(gid) - 1)))
        done;
        for v = 0 to ngrid - 1 do
          mu.(v) <-
            Float.max 0.0 (mu.(v) +. (step *. float_of_int (vert_use.(v) - 1)))
        done
      end;
      let mult_norm = sqrt (norm2 lambda +. norm2 mu) in
      iters := !iters + 1;
      if it = 0 || (it + 1) mod params.round_every = 0 then attempt_round ();
      trace :=
        {
          it;
          dual = l;
          best_dual = !best_raw;
          primal = primal_cost ();
          step;
          mult_norm;
          busy_s = iter_busy;
        }
        :: !trace;
      if closed () || over_deadline () then stop := true
    done;
    if not (closed ()) then attempt_round ();
    let dual_bound = lifted () in
    let gap =
      match primal_obj () with
      | None -> None
      | Some p when p <= 0.0 -> Some 0.0
      | Some p -> Some ((p -. dual_bound) /. p)
    in
    {
      solution = !best_sol;
      dual_bound;
      unreachable = false;
      iterations = !iters;
      gap;
      busy_s = !busy_total;
      wall_s = Unix.gettimeofday () -. t0;
      rounding_attempts = !attempts;
      rip_ups = !rip_ups;
      seeded;
      trace = List.rev !trace;
    }
  end
