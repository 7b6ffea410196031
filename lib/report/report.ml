(* Atomic output files: write the full contents under a temporary name in
   the destination directory (same filesystem, so the rename is atomic on
   POSIX), then rename into place. A crash mid-write leaves a stray
   [.tmp] file, never a torn half-document that downstream parsers — the
   basis loader, the serve cache store, CI's JSON invariant checks —
   would then choke on. *)
let write_atomic path contents =
  let dir = Filename.dirname path in
  let tmp =
    Filename.temp_file ~temp_dir:dir ("." ^ Filename.basename path) ".tmp"
  in
  match
    let oc = open_out_bin tmp in
    (try output_string oc contents
     with exn ->
       close_out_noerr oc;
       raise exn);
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception exn ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise exn

module Table = struct
  let render ~header rows =
    let all = header :: rows in
    let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
    let widths = Array.make ncols 0 in
    List.iter
      (fun row ->
        List.iteri
          (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
          row)
      all;
    let buf = Buffer.create 256 in
    let emit row =
      List.iteri
        (fun i cell ->
          Buffer.add_string buf cell;
          if i < ncols - 1 then
            Buffer.add_string buf (String.make (widths.(i) - String.length cell + 2) ' '))
        row;
      Buffer.add_char buf '\n'
    in
    emit header;
    let total = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
    Buffer.add_string buf (String.make total '-');
    Buffer.add_char buf '\n';
    List.iter emit rows;
    Buffer.contents buf
end

module Series = struct
  let markers = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&'; '~'; '$'; '^' |]

  let plot ?(width = 64) ?(height = 16) ?(y_label = "") series =
    let ymin, ymax, xmax =
      List.fold_left
        (fun (lo, hi, n) (_, ys) ->
          Array.fold_left
            (fun (lo, hi, n) y -> (Float.min lo y, Float.max hi y, n))
            (lo, hi, max n (Array.length ys))
            ys)
        (infinity, neg_infinity, 0)
        series
    in
    if xmax = 0 || ymin = infinity then "(no data)\n"
    else begin
      let ymin = Float.min ymin 0.0 in
      let yspan = if ymax -. ymin <= 0.0 then 1.0 else ymax -. ymin in
      let canvas = Array.make_matrix height width ' ' in
      List.iteri
        (fun si (_, ys) ->
          let marker = markers.(si mod Array.length markers) in
          Array.iteri
            (fun i y ->
              let x =
                if xmax <= 1 then 0
                else i * (width - 1) / (xmax - 1)
              in
              let row =
                Optrouter_geom.Round.nearest
                  ((y -. ymin) /. yspan *. float_of_int (height - 1))
              in
              let row = max 0 (min (height - 1) row) in
              canvas.(height - 1 - row).(x) <- marker)
            ys)
        series;
      let buf = Buffer.create (height * (width + 12)) in
      if y_label <> "" then Buffer.add_string buf (y_label ^ "\n");
      for r = 0 to height - 1 do
        let yval = ymax -. (float_of_int r /. float_of_int (height - 1) *. yspan) in
        Buffer.add_string buf (Printf.sprintf "%8.1f |" yval);
        for c = 0 to width - 1 do
          Buffer.add_char buf canvas.(r).(c)
        done;
        Buffer.add_char buf '\n'
      done;
      Buffer.add_string buf (String.make 10 ' ');
      Buffer.add_string buf (String.make width '-');
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Printf.sprintf "%10s0%s%d (clip index, sorted)\n" ""
           (String.make (max 1 (width - 8)) ' ')
           (xmax - 1));
      List.iteri
        (fun si (name, _) ->
          Buffer.add_string buf
            (Printf.sprintf "  %c %s\n" markers.(si mod Array.length markers) name))
        series;
      Buffer.contents buf
    end
end

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec emit buf indent v =
    let pad n = String.make (2 * n) ' ' in
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      (* JSON has no NaN/infinity: refuse to emit a document that no JSON
         reader can parse. *)
      if not (Float.is_finite f) then
        invalid_arg (Printf.sprintf "Report.Json: non-finite float %h" f);
      (* Shortest representation that parses back to the same float:
         [%.17g] is always exact but noisy; [%.15g] usually suffices. *)
      let token =
        let short = Printf.sprintf "%.15g" f in
        if float_of_string short = f then short else Printf.sprintf "%.17g" f
      in
      (* Keep the token recognisably a float: without [./e/E] a reader
         would take it for an integer. *)
      let is_float_token =
        String.exists (fun c -> c = '.' || c = 'e' || c = 'E') token
      in
      Buffer.add_string buf token;
      if not is_float_token then Buffer.add_string buf ".0"
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 1));
          emit buf (indent + 1) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 1));
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          emit buf (indent + 1) item)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    emit buf 0 v;
    Buffer.add_char buf '\n';
    Buffer.contents buf

  let write_file path v = write_atomic path (to_string v)
end

module Log = struct
  type level = Debug | Info | Warn | Error

  let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

  let level_name = function
    | Debug -> "debug"
    | Info -> "info"
    | Warn -> "warn"
    | Error -> "error"

  (* The one table of level names, for OPTROUTER_LOG and --verbosity. The
     first name of each setting is its canonical one. *)
  let level_names =
    [
      ("quiet", None);
      ("error", Some Error);
      ("warning", Some Warn);
      ("warn", Some Warn);
      ("info", Some Info);
      ("debug", Some Debug);
    ]

  let level_of_string s =
    match List.assoc_opt (String.lowercase_ascii s) level_names with
    | Some lvl -> Ok lvl
    | None ->
      Error
        (Printf.sprintf
           "unknown log level %S (want quiet, error, warning, info or debug)" s)

  let level_to_string lvl =
    fst (List.find (fun (_, l) -> l = lvl) level_names)

  let rank_of = function None -> -1 | Some l -> level_rank l

  (* All state is held in Atomics: messages and counters flow from pool
     worker domains, so plain refs or a Hashtbl would race (and would trip
     the source lint's L004). *)
  let threshold : int Atomic.t =
    (* -1 = silent. Initialised once from OPTROUTER_LOG. *)
    Atomic.make
      (match Option.map level_of_string (Sys.getenv_opt "OPTROUTER_LOG") with
      | Some (Ok lvl) -> rank_of lvl
      | Some (Error _) | None -> -1)

  let set_level lvl = Atomic.set threshold (rank_of lvl)

  let enabled lvl =
    let t = Atomic.get threshold in
    t >= 0 && level_rank lvl >= t

  let default_sink lvl ~src line =
    (* One write of one preformatted line: concurrent domains may reorder
       whole lines but never interleave within one. *)
    output_string stderr
      (Printf.sprintf "[%s] %s: %s\n" src (level_name lvl) line);
    flush stderr

  let sink : (level -> src:string -> string -> unit) Atomic.t =
    Atomic.make default_sink

  let set_sink = function
    | None -> Atomic.set sink default_sink
    | Some f -> Atomic.set sink f

  (* Per-source event counters, lock-free: the bucket list only ever grows
     and each bucket's count is itself atomic. *)
  let counters : (string * int Atomic.t) list Atomic.t = Atomic.make []

  let rec bucket src =
    match List.assoc_opt src (Atomic.get counters) with
    | Some c -> c
    | None ->
      let seen = Atomic.get counters in
      let c = Atomic.make 0 in
      if Atomic.compare_and_set counters seen ((src, c) :: seen) then c
      else bucket src

  let counts () =
    Atomic.get counters
    |> List.map (fun (src, c) -> (src, Atomic.get c))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.filter (fun (_, n) -> n > 0)

  (* An event the level hides is counted instead, so quiet runs still
     surface how much went unreported. *)
  let event lvl ~src msg =
    if enabled lvl then (Atomic.get sink) lvl ~src (msg ())
    else Atomic.incr (bucket src)

  let debug ~src msg = event Debug ~src msg
  let info ~src msg = event Info ~src msg
  let warn ~src msg = event Warn ~src msg
  let error ~src msg = event Error ~src msg
end

module Csv = struct
  let escape cell =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
    else cell

  let to_string ~header rows =
    let line row = String.concat "," (List.map escape row) in
    String.concat "\n" (line header :: List.map line rows) ^ "\n"

  let write_file path ~header rows = write_atomic path (to_string ~header rows)
end
