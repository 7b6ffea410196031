module Clip = Optrouter_grid.Clip
module Rect = Optrouter_geom.Rect

let to_string (c : Clip.t) =
  let b = Buffer.create 256 in
  let str = Buffer.add_string b and chr = Buffer.add_char b in
  let int i = str (string_of_int i) in
  str "clip ";
  str c.Clip.c_name;
  str "\ntech ";
  str c.Clip.tech_name;
  str "\nsize ";
  int c.Clip.cols;
  chr ' ';
  int c.Clip.rows;
  chr ' ';
  int c.Clip.layers;
  chr '\n';
  List.iter
    (fun (x, y, z) ->
      str "obs ";
      int x;
      chr ' ';
      int y;
      chr ' ';
      int z;
      chr '\n')
    c.Clip.obstructions;
  List.iter
    (fun (net : Clip.net) ->
      str "net ";
      str net.Clip.n_name;
      chr '\n';
      List.iter
        (fun (pin : Clip.pin) ->
          str "pin ";
          str pin.Clip.p_name;
          (match pin.Clip.shape with
          | Some r ->
            str " shape";
            List.iter
              (fun v ->
                chr ' ';
                int v)
              [ r.Rect.xlo; r.Rect.ylo; r.Rect.xhi; r.Rect.yhi ]
          | None -> ());
          str " access";
          List.iter
            (fun (x, y) ->
              chr ' ';
              int x;
              chr ',';
              int y)
            pin.Clip.access;
          chr '\n')
        net.Clip.pins;
      str "endnet\n")
    c.Clip.nets;
  str "endclip\n";
  Buffer.contents b

let pp ppf c = Format.pp_print_string ppf (to_string c)

type parse_state = {
  mutable name : string;
  mutable tech : string;
  mutable dims : (int * int * int) option;
  mutable obs : (int * int * int) list;
  mutable nets : Clip.net list;
  mutable cur_net : string option;
  mutable cur_pins : Clip.pin list;
}

let fresh () =
  {
    name = "clip";
    tech = "N28-12T";
    dims = None;
    obs = [];
    nets = [];
    cur_net = None;
    cur_pins = [];
  }

let of_string s =
  let ( let* ) = Result.bind in
  let err line fmt = Format.kasprintf (fun m -> Error (Printf.sprintf "line %d: %s" line m)) fmt in
  let lines = String.split_on_char '\n' s in
  let clips = ref [] in
  let st = ref (fresh ()) in
  let parse_int line tok =
    match int_of_string_opt tok with
    | Some v -> Ok v
    | None -> err line "expected integer, got %S" tok
  in
  let parse_access line tok =
    match String.split_on_char ',' tok with
    | [ xs; ys ] ->
      let* x = parse_int line xs in
      let* y = parse_int line ys in
      Ok (x, y)
    | _ -> err line "expected x,y access point, got %S" tok
  in
  let finish_clip line =
    let st' = !st in
    match st'.dims with
    | None -> err line "endclip before size"
    | Some (cols, rows, layers) ->
      let clip =
        Clip.make ~name:st'.name ~tech_name:st'.tech
          ~obstructions:(List.rev st'.obs) ~cols ~rows ~layers
          (List.rev st'.nets)
      in
      clips := clip :: !clips;
      st := fresh ();
      Ok ()
  in
  let rec go line_no = function
    | [] ->
      if !st.cur_net <> None then err line_no "unterminated net"
      else Ok (List.rev !clips)
    | line :: rest -> (
      let line_no = line_no + 1 in
      let trimmed = String.trim line in
      let tokens =
        String.split_on_char ' ' trimmed |> List.filter (fun t -> t <> "")
      in
      match tokens with
      | [] -> go line_no rest
      | tok :: _ when String.length tok > 0 && tok.[0] = '#' -> go line_no rest
      | [ "clip"; name ] ->
        !st.name <- name;
        go line_no rest
      | [ "tech"; tech ] ->
        !st.tech <- tech;
        go line_no rest
      | [ "size"; c; r; l ] ->
        let* cols = parse_int line_no c in
        let* rows = parse_int line_no r in
        let* layers = parse_int line_no l in
        !st.dims <- Some (cols, rows, layers);
        go line_no rest
      | [ "obs"; x; y; z ] ->
        let* x = parse_int line_no x in
        let* y = parse_int line_no y in
        let* z = parse_int line_no z in
        !st.obs <- (x, y, z) :: !st.obs;
        go line_no rest
      | [ "net"; name ] ->
        if !st.cur_net <> None then err line_no "nested net"
        else begin
          !st.cur_net <- Some name;
          !st.cur_pins <- [];
          go line_no rest
        end
      | "pin" :: name :: args ->
        if !st.cur_net = None then err line_no "pin outside net"
        else begin
          let* shape, access_toks =
            match args with
            | "shape" :: xlo :: ylo :: xhi :: yhi :: "access" :: aps ->
              let* xlo = parse_int line_no xlo in
              let* ylo = parse_int line_no ylo in
              let* xhi = parse_int line_no xhi in
              let* yhi = parse_int line_no yhi in
              Ok (Some (Rect.make ~xlo ~ylo ~xhi ~yhi), aps)
            | "access" :: aps -> Ok (None, aps)
            | _ -> err line_no "malformed pin line"
          in
          let* access =
            List.fold_left
              (fun acc tok ->
                let* acc = acc in
                let* p = parse_access line_no tok in
                Ok (p :: acc))
              (Ok []) access_toks
          in
          !st.cur_pins <-
            { Clip.p_name = name; access = List.rev access; shape }
            :: !st.cur_pins;
          go line_no rest
        end
      | [ "endnet" ] -> (
        match !st.cur_net with
        | None -> err line_no "endnet outside net"
        | Some name ->
          !st.nets <-
            { Clip.n_name = name; pins = List.rev !st.cur_pins } :: !st.nets;
          !st.cur_net <- None;
          go line_no rest)
      | [ "endclip" ] ->
        if !st.cur_net <> None then err line_no "endclip inside net"
        else
          let* () = finish_clip line_no in
          go line_no rest
      | tok :: _ -> err line_no "unknown directive %S" tok)
  in
  go 0 lines

let one_of_string s =
  match of_string s with
  | Error _ as e -> e
  | Ok [ clip ] -> Ok clip
  | Ok [] -> Error "no clip in input"
  | Ok clips ->
    Error (Printf.sprintf "expected exactly one clip, got %d" (List.length clips))

let write_file path clips =
  Optrouter_report.Report.write_atomic path
    (String.concat "" (List.map to_string clips))

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s
