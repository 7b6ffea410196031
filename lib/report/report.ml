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
      (* JSON has no NaN/infinity, and our own parser (below) rejects
         such literals — refusing to emit them keeps emit/parse a
         round-trip instead of producing a document we cannot re-read. *)
      if not (Float.is_finite f) then
        invalid_arg (Printf.sprintf "Report.Json: non-finite float %h" f);
      (* Shortest representation that parses back to the same float:
         [%.17g] is always exact but noisy; [%.15g] usually suffices. *)
      let token =
        let short = Printf.sprintf "%.15g" f in
        if float_of_string short = f then short else Printf.sprintf "%.17g" f
      in
      (* Keep the token recognisably a float: without [./e/E] the parser
         would hand it back as [Int]. *)
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

  (* A small strict parser, the inverse of [to_string] — enough for the
     serve daemon's JSON request envelope and for re-reading our own
     reports. Integers without [./e/E] parse as [Int]; anything else
     numeric as [Float]; non-finite literals are rejected (JSON has
     none). *)
  let of_string s =
    let n = String.length s in
    let exception Bad of string in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if peek () = Some c then incr pos
      else fail "expected '%c' at offset %d" c !pos
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail "bad literal at offset %d" !pos
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (if !pos >= n then fail "unterminated escape");
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
            | Some code ->
              (* Non-ASCII escapes: UTF-8 encode the code point (no
                 surrogate-pair handling; our own writer only escapes
                 control characters, which are ASCII). *)
              if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
            | None -> fail "bad \\u escape %S" hex)
          | c -> fail "bad escape '\\%c'" c);
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let numchar c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && numchar s.[!pos] do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      let is_int =
        not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok)
      in
      if is_int then
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> fail "bad number %S at offset %d" tok start
      else
        match float_of_string_opt tok with
        | Some f when Float.is_finite f -> Float f
        | Some _ | None -> fail "bad number %S at offset %d" tok start
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            incr pos;
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            incr pos;
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail "unexpected '%c' at offset %d" c !pos
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage at offset %d" !pos;
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
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

module Stats = struct
  let percentile p values =
    if Array.length values = 0 then
      invalid_arg "Report.Stats.percentile: empty sample";
    if p < 0.0 || p > 100.0 then
      invalid_arg "Report.Stats.percentile: p outside [0,100]";
    let sorted = Array.copy values in
    Array.sort Float.compare sorted;
    let n = Array.length sorted in
    (* Nearest-rank: the smallest value with at least p% of the sample at
       or below it. *)
    let rank = Optrouter_geom.Round.ceil (p /. 100.0 *. float_of_int n) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
end
