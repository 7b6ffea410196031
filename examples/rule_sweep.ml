(* Rule sweep: the paper's evaluation flow (Figure 6) in miniature.

   Generates a synthetic placed design, extracts the most difficult clips
   by pin cost, routes each under every applicable rule configuration and
   prints the Δcost table relative to RULE1.

   Run with: dune exec examples/rule_sweep.exe *)

module Tech = Optrouter_tech.Tech
module Clip = Optrouter_grid.Clip
module Design = Optrouter_design.Design
module Extract = Optrouter_clips.Extract
module Pin_cost = Optrouter_clips.Pin_cost
module Sweep = Optrouter_eval.Sweep
module Experiments = Optrouter_eval.Experiments
module Report = Optrouter_report.Report

let () =
  let tech = Tech.n28_8t in
  Printf.printf "technology: %s\n" (Format.asprintf "%a" Tech.pp tech);
  (* A small AES-profile design: 3%% of the paper's instance count keeps
     the ILP instances solvable by the bundled MILP solver. *)
  let profile =
    { Design.aes with Design.instance_count = 400 }
  in
  let design = Design.generate ~seed:1 profile ~util:0.92 tech in
  Printf.printf "design: %s\n" (Format.asprintf "%a" Design.pp design);
  let clips = Extract.windows Extract.reduced_params design in
  Printf.printf "extracted %d clips; selecting the 3 hardest by pin cost\n\n"
    (List.length clips);
  let hardest = Extract.top_k 2 clips in
  List.iter
    (fun (clip, cost) ->
      Printf.printf "  %s: pin cost %.1f (%d pins)\n" clip.Clip.c_name cost
        (Clip.num_pins clip))
    hardest;
  print_newline ();
  let rules = Experiments.rules_for tech in
  (* a short per-solve budget keeps the example interactive; unproved
     solves show up as "limit" *)
  let config =
    Optrouter_core.Optrouter.make_config
      ~milp:(Optrouter_ilp.Milp.make_params ~time_limit_s:15.0 ())
      ()
  in
  let entries = Sweep.sweep ~config ~tech ~rules (List.map fst hardest) in
  let rows =
    List.map
      (fun (e : Sweep.entry) ->
        [
          e.Sweep.clip_name;
          e.Sweep.rule_name;
          string_of_int e.Sweep.base_cost;
          (match e.Sweep.delta with
          | Sweep.Delta d -> Printf.sprintf "%+d" d
          | Sweep.Infeasible -> "unroutable"
          | Sweep.Limit -> "limit");
        ])
      entries
  in
  print_string
    (Report.Table.render ~header:[ "clip"; "rule"; "cost(RULE1)"; "dcost" ] rows);
  print_newline ();
  print_string
    (Report.Series.plot ~y_label:"sorted dcost per rule (500 = unroutable)"
       (Sweep.series entries))
