(* End-to-end tests of the command-line interface: each test drives the
   real binary through a temp directory, exactly as a user would. *)

let exe = Filename.concat (Filename.concat ".." "bin") "optrouter.exe"

(* [env] is a shell prefix for the command, such as [VAR=value]. *)
let run_capture ?(env = "") args =
  let out = Filename.temp_file "optrouter_cli" ".out" in
  let cmd =
    Printf.sprintf "%s %s %s > %s 2>&1" env exe (String.concat " " args) out
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, text)

let contains text sub =
  let len_t = String.length text and len = String.length sub in
  let rec go i = i + len <= len_t && (String.sub text i len = sub || go (i + 1)) in
  go 0

let sample_clips =
  "clip cli-test\n\
   tech N28-12T\n\
   size 4 3 2\n\
   net a\n\
   pin s access 0,0\n\
   pin t access 3,2\n\
   endnet\n\
   net b\n\
   pin s access 3,0\n\
   pin t access 0,2\n\
   endnet\n\
   endclip\n"

let with_clips_file f =
  let path = Filename.temp_file "optrouter_cli" ".clips" in
  let oc = open_out path in
  output_string oc sample_clips;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* The named clips of the bundled samples, cut out as CI does. *)
let with_samples names f =
  let path = Filename.temp_file "optrouter_cli" ".clips" in
  let script =
    String.concat ";"
      (List.map (Printf.sprintf "/^clip %s/,/^endclip/p") names)
  in
  let code =
    Sys.command
      (Printf.sprintf "sed -n '%s' %s > %s" script
         (Filename.concat ".." (Filename.concat "data" "samples.clips"))
         (Filename.quote path))
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Alcotest.(check int) "clips cut out" 0 code;
      f path)

(* Routed under RULE2, [eol-conflict] logs 64 maze repair events at
   debug level. *)
let with_eol_conflict f = with_samples [ "eol-conflict" ] f

(* Rendered diagnostics: the [[src] level: message] lines. *)
let diagnostics text =
  List.filter
    (fun l -> String.length l > 0 && l.[0] = '[')
    (String.split_on_char '\n' text)

let test_cli_verbose_renders_debug () =
  with_eol_conflict (fun path ->
      let code, text =
        run_capture ~env:"env -u OPTROUTER_LOG"
          [ "route"; "-v"; "-v"; "--rule"; "2"; path ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "renders maze debug events" true
        (contains text "[maze] debug: "))

let test_cli_quiet_takes_over_env () =
  with_eol_conflict (fun path ->
      let code, text =
        run_capture ~env:"OPTROUTER_LOG=debug"
          [ "route"; "-q"; "--rule"; "2"; path ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "routes" true (contains text "cost=");
      Alcotest.(check (list string)) "no diagnostics" [] (diagnostics text))

let test_cli_level_names () =
  with_eol_conflict (fun path ->
      let code, _ = run_capture [ "route"; "--verbosity"; "warn"; path ] in
      Alcotest.(check int) "--verbosity warn accepted" 0 code;
      (* The environment default of --verbosity takes over -v. *)
      let code, text =
        run_capture ~env:"OPTROUTER_LOG=warning"
          [ "route"; "-v"; "-v"; "--rule"; "2"; path ]
      in
      Alcotest.(check int) "OPTROUTER_LOG=warning accepted" 0 code;
      Alcotest.(check (list string)) "the env level takes over -v -v" []
        (diagnostics text))

let test_cli_serial_solver_jobs () =
  (* A serial sweep runs its solves one at a time, so each gets the full
     --solver-jobs width and the telemetry shows the parallel search. *)
  with_samples [ "eol-conflict"; "ladder" ] (fun path ->
      let code, text =
        run_capture
          [
            "sweep"; "-j"; "1"; "--solver-jobs"; "2"; "--time-limit"; "30";
            path;
          ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "peak 2 workers" true
        (contains text "peak 2 workers"))

let test_cli_exists () =
  Alcotest.(check bool) "binary built" true (Sys.file_exists exe)

let test_cli_help () =
  let code, text = run_capture [ "--help=plain" ] in
  Alcotest.(check int) "exit 0" 0 code;
  List.iter
    (fun sub -> Alcotest.(check bool) (sub ^ " listed") true (contains text sub))
    [ "route"; "sweep"; "gen"; "pincost"; "solve-lp" ]

let test_cli_route () =
  with_clips_file (fun path ->
      let code, text = run_capture [ "route"; "--rule"; "1"; path ] in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "reports cost" true (contains text "cost=");
      Alcotest.(check bool) "names the clip" true (contains text "cli-test"))

let test_cli_route_out () =
  with_clips_file (fun path ->
      let base = Filename.temp_file "optrouter_cli" "" in
      let code, _ =
        run_capture [ "route"; "--rule"; "1"; "--route-out"; base; path ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      let routed = base ^ ".0.route" in
      Alcotest.(check bool) "route file written" true (Sys.file_exists routed);
      let ic = open_in routed in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove routed;
      Sys.remove base;
      Alcotest.(check bool) "route header" true (contains text "route cli-test"))

let test_cli_pincost () =
  with_clips_file (fun path ->
      let code, text = run_capture [ "pincost"; path ] in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "has header" true (contains text "PEC"))

let test_cli_show () =
  with_clips_file (fun path ->
      let code, text = run_capture [ "show"; path ] in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "renders grid" true (contains text "a"))

let test_cli_baseline () =
  with_clips_file (fun path ->
      let code, text = run_capture [ "baseline"; "--rule"; "1"; path ] in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "reports heuristic cost" true
        (contains text "heuristic"))

let test_cli_cells () =
  let code, text = run_capture [ "cells"; "--tech"; "N7-9T" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "prints NAND2" true (contains text "NAND2X1")

let test_cli_solve_lp () =
  let path = Filename.temp_file "optrouter_cli" ".lp" in
  let oc = open_out path in
  output_string oc
    "Minimize\n\
    \  obj: 2 x + 3 y\n\
     Subject To\n\
    \  c: x + y >= 4\n\
     Bounds\n\
    \  0 <= x <= 10\n\
    \  0 <= y <= 10\n\
     End\n";
  close_out oc;
  let code, text = run_capture [ "solve-lp"; path ] in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "optimal 8 at x=4" true
    (contains text "optimal: 8" && contains text "x = 4")

let test_cli_global () =
  let code, text =
    run_capture [ "global"; "--tech"; "N28-8T"; "--scale"; "0.01" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "prints congestion" true (contains text "gcells")

let test_cli_rejects_bad_input () =
  let path = Filename.temp_file "optrouter_cli" ".clips" in
  let oc = open_out path in
  output_string oc "clip broken\nendclip\n";
  close_out oc;
  let code, _ = run_capture [ "route"; path ] in
  Sys.remove path;
  Alcotest.(check bool) "nonzero exit" true (code <> 0)

let () =
  Alcotest.run "cli"
    [
      ( "cli",
        [
          Alcotest.test_case "binary exists" `Quick test_cli_exists;
          Alcotest.test_case "help lists subcommands" `Quick test_cli_help;
          Alcotest.test_case "route" `Quick test_cli_route;
          Alcotest.test_case "route --route-out" `Quick test_cli_route_out;
          Alcotest.test_case "pincost" `Quick test_cli_pincost;
          Alcotest.test_case "show" `Quick test_cli_show;
          Alcotest.test_case "baseline" `Quick test_cli_baseline;
          Alcotest.test_case "cells" `Quick test_cli_cells;
          Alcotest.test_case "solve-lp" `Quick test_cli_solve_lp;
          Alcotest.test_case "global congestion" `Quick test_cli_global;
          Alcotest.test_case "bad input rejected" `Quick
            test_cli_rejects_bad_input;
          Alcotest.test_case "-v -v renders debug" `Quick
            test_cli_verbose_renders_debug;
          Alcotest.test_case "-q takes over OPTROUTER_LOG" `Quick
            test_cli_quiet_takes_over_env;
          Alcotest.test_case "level names" `Quick test_cli_level_names;
          Alcotest.test_case "serial sweep --solver-jobs widens" `Quick
            test_cli_serial_solver_jobs;
        ] );
    ]
