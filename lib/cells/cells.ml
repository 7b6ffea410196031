module Rect = Optrouter_geom.Rect
module Tech = Optrouter_tech.Tech

type pin = {
  p_name : string;
  offsets : (int * int) list;
  shape : Rect.t;
  is_output : bool;
}

type t = { c_name : string; width_cols : int; pins : pin list }

(* Rows usable for pins: the top and bottom tracks are taken by power and
   ground rails, as in any standard-cell architecture. *)
let usable_rows tech =
  let h = tech.Tech.cell_height_tracks in
  (1, h - 2)

(* Access-point rows per technology class. N7-9T gets two adjacent rows at
   mid-cell (Figure 9(c)); the 28nm libraries spread points over the pin
   finger. *)
let access_rows tech ~count =
  let lo, hi = usable_rows tech in
  let span = hi - lo in
  if count >= span + 1 then List.init (span + 1) (fun i -> lo + i)
  else if count = 1 then [ lo + (span / 2) ]
  else if tech.Tech.access_points_per_pin <= 2 then
    let mid = lo + (span / 2) in
    List.init count (fun i -> mid + i)
  else
    let step = span / (count - 1) in
    List.init count (fun i -> lo + (i * max 1 step))

let pin_shape tech ~col rows =
  let pw = tech.Tech.pin_width in
  let cx = col * tech.Tech.vpitch in
  let ylo = List.fold_left min max_int rows * tech.Tech.hpitch in
  let yhi = List.fold_left max min_int rows * tech.Tech.hpitch in
  Rect.make ~xlo:(cx - (pw / 2)) ~ylo:(ylo - (pw / 2)) ~xhi:(cx + (pw / 2))
    ~yhi:(yhi + (pw / 2))

let make_pin tech ~name ~col ~is_output ?(extra = 0) () =
  let count = tech.Tech.access_points_per_pin + extra in
  let rows = access_rows tech ~count in
  {
    p_name = name;
    offsets = List.map (fun r -> (col, r)) rows;
    shape = pin_shape tech ~col rows;
    is_output;
  }

let cell tech name width spec =
  let pins =
    List.map
      (fun (pname, col, is_output) ->
        (* outputs are driven by wide fingers and expose more points *)
        let extra = if is_output then 1 else 0 in
        make_pin tech ~name:pname ~col ~is_output ~extra ())
      spec
  in
  { c_name = name; width_cols = width; pins }

let nand2 tech =
  cell tech "NAND2X1" 3 [ ("A", 0, false); ("B", 1, false); ("Y", 2, true) ]

let library tech =
  [
    (* inverters and buffers *)
    cell tech "INVX1" 2 [ ("A", 0, false); ("Y", 1, true) ];
    cell tech "INVX2" 2 [ ("A", 0, false); ("Y", 1, true) ];
    cell tech "INVX4" 3 [ ("A", 0, false); ("Y", 2, true) ];
    cell tech "BUFX2" 3 [ ("A", 0, false); ("Y", 2, true) ];
    cell tech "BUFX4" 4 [ ("A", 0, false); ("Y", 3, true) ];
    cell tech "CLKBUFX3" 4 [ ("A", 0, false); ("Y", 3, true) ];
    (* two-input gates *)
    nand2 tech;
    cell tech "NOR2X1" 3 [ ("A", 0, false); ("B", 1, false); ("Y", 2, true) ];
    cell tech "AND2X1" 3 [ ("A", 0, false); ("B", 1, false); ("Y", 2, true) ];
    cell tech "OR2X1" 3 [ ("A", 0, false); ("B", 1, false); ("Y", 2, true) ];
    cell tech "XOR2X1" 4 [ ("A", 0, false); ("B", 2, false); ("Y", 3, true) ];
    cell tech "XNOR2X1" 4 [ ("A", 0, false); ("B", 2, false); ("Y", 3, true) ];
    (* three-input and complex gates *)
    cell tech "NAND3X1" 4
      [ ("A", 0, false); ("B", 1, false); ("C", 2, false); ("Y", 3, true) ];
    cell tech "NOR3X1" 4
      [ ("A", 0, false); ("B", 1, false); ("C", 2, false); ("Y", 3, true) ];
    cell tech "AOI21X1" 4
      [ ("A", 0, false); ("B", 1, false); ("C", 2, false); ("Y", 3, true) ];
    cell tech "OAI21X1" 4
      [ ("A", 0, false); ("B", 1, false); ("C", 2, false); ("Y", 3, true) ];
    cell tech "AOI22X1" 5
      [
        ("A", 0, false); ("B", 1, false); ("C", 2, false); ("D", 3, false);
        ("Y", 4, true);
      ];
    cell tech "OAI22X1" 5
      [
        ("A", 0, false); ("B", 1, false); ("C", 2, false); ("D", 3, false);
        ("Y", 4, true);
      ];
    cell tech "MUX2X1" 5
      [ ("A", 0, false); ("B", 1, false); ("S", 2, false); ("Y", 4, true) ];
    (* arithmetic *)
    cell tech "ADDHX1" 6
      [ ("A", 0, false); ("B", 1, false); ("S", 4, true); ("CO", 5, true) ];
    cell tech "ADDFX1" 8
      [
        ("A", 0, false); ("B", 1, false); ("CI", 2, false); ("S", 6, true);
        ("CO", 7, true);
      ];
    (* sequential *)
    cell tech "DFFX1" 8 [ ("D", 1, false); ("CK", 3, false); ("Q", 6, true) ];
    cell tech "DFFRX1" 9
      [ ("D", 1, false); ("CK", 3, false); ("RN", 5, false); ("Q", 7, true) ];
    cell tech "SDFFX1" 10
      [
        ("D", 1, false); ("SI", 2, false); ("SE", 4, false); ("CK", 6, false);
        ("Q", 8, true);
      ];
    cell tech "LATX1" 6 [ ("D", 1, false); ("G", 3, false); ("Q", 5, true) ];
  ]

let find cells name =
  match List.find_opt (fun c -> String.equal c.c_name name) cells with
  | Some c -> c
  | None -> raise Not_found

let inputs c = List.filter (fun p -> not p.is_output) c.pins
let outputs c = List.filter (fun p -> p.is_output) c.pins

let render tech c =
  let h = tech.Tech.cell_height_tracks in
  let w = c.width_cols in
  let grid = Array.make_matrix h w '.' in
  (* power rails *)
  for x = 0 to w - 1 do
    grid.(0).(x) <- '=';
    grid.(h - 1).(x) <- '='
  done;
  List.iter
    (fun p ->
      let ch = p.p_name.[0] in
      List.iter
        (fun (x, y) -> if y >= 0 && y < h && x >= 0 && x < w then grid.(y).(x) <- ch)
        p.offsets)
    c.pins;
  let buf = Buffer.create (h * (w + 1)) in
  Buffer.add_string buf (Printf.sprintf "%s (%s)\n" c.c_name tech.Tech.name);
  for y = h - 1 downto 0 do
    for x = 0 to w - 1 do
      Buffer.add_char buf grid.(y).(x);
      Buffer.add_char buf ' '
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let pp ppf c =
  Format.fprintf ppf "%s (w=%d cols, pins:" c.c_name c.width_cols;
  List.iter
    (fun p -> Format.fprintf ppf " %s[%d]" p.p_name (List.length p.offsets))
    c.pins;
  Format.fprintf ppf ")"
