module Rect = Optrouter_geom.Rect
module Round = Optrouter_geom.Round
module Tech = Optrouter_tech.Tech
module Cells = Optrouter_cells.Cells

type profile = {
  pr_name : string;
  instance_count : int;
  period_ns : float;
  flop_share : float;
}

let aes =
  { pr_name = "AES"; instance_count = 13_500; period_ns = 1.2; flop_share = 0.12 }

let m0 =
  { pr_name = "M0"; instance_count = 9_200; period_ns = 2.2; flop_share = 0.22 }

type instance = {
  i_name : string;
  cell : Cells.t;
  col : int;
  band : int;
  flipped : bool;
}

type conn = { inst : int; pin : string }
type dnet = { dn_name : string; driver : conn; loads : conn list }

type t = {
  d_name : string;
  tech : Tech.t;
  profile : profile;
  target_util : float;
  width_cols : int;
  bands : int;
  instances : instance array;
  nets : dnet array;
  achieved_util : float;
}

(* Combinational mix: inverters and 2-input gates dominate, with a tail of
   complex gates, roughly matching a mapped netlist's histogram. *)
let comb_weights =
  [
    ("INVX1", 14);
    ("INVX2", 7);
    ("INVX4", 3);
    ("BUFX2", 7);
    ("BUFX4", 3);
    ("CLKBUFX3", 2);
    ("NAND2X1", 16);
    ("NOR2X1", 11);
    ("AND2X1", 5);
    ("OR2X1", 4);
    ("XOR2X1", 5);
    ("XNOR2X1", 3);
    ("NAND3X1", 4);
    ("NOR3X1", 3);
    ("AOI21X1", 7);
    ("OAI21X1", 6);
    ("AOI22X1", 3);
    ("OAI22X1", 3);
    ("MUX2X1", 4);
    ("ADDHX1", 2);
    ("ADDFX1", 2);
  ]

let seq_weights = [ ("DFFX1", 6); ("DFFRX1", 2); ("SDFFX1", 1); ("LATX1", 1) ]

let pick_weighted rng weights =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  let r = Random.State.int rng total in
  let rec go acc = function
    | [] -> assert false
    | (name, w) :: rest -> if r < acc + w then name else go (acc + w) rest
  in
  go 0 weights

let generate ?(seed = 42) profile ~util tech =
  if util <= 0.0 || util > 1.0 then invalid_arg "Design.generate: bad utilisation";
  (* The profile-name component must be a stable digest: Hashtbl.hash is
     not reproducible across OCaml versions or platforms, and generated
     designs feed content-addressed caches keyed on their clips. *)
  let rng =
    Random.State.make [| seed; Optrouter_hash.Stable.seed profile.pr_name |]
  in
  let lib = Cells.library tech in
  (* Draw the instance population. *)
  let instances_spec =
    Array.init profile.instance_count (fun i ->
        let kind =
          if Random.State.float rng 1.0 < profile.flop_share then
            pick_weighted rng seq_weights
          else pick_weighted rng comb_weights
        in
        (Printf.sprintf "u%d" i, Cells.find lib kind))
  in
  let total_width =
    Array.fold_left (fun acc (_, c) -> acc + c.Cells.width_cols) 0 instances_spec
  in
  (* Square-ish floorplan: band height is cell_height * hpitch nm, column
     pitch is vpitch nm; aim for equal physical extent in x and y. *)
  let row_h_nm = Tech.row_height tech in
  let area_cols = float_of_int total_width /. util in
  let bands =
    Round.ceil
      (Float.sqrt
         (area_cols *. float_of_int tech.Tech.vpitch /. float_of_int row_h_nm))
  in
  let bands = max 1 bands in
  let width_cols = Round.ceil (area_cols /. float_of_int bands) in
  (* Deal instances into bands, then pack each band left to right with the
     leftover space spread as random gaps. *)
  let order = Array.init profile.instance_count Fun.id in
  for i = profile.instance_count - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  let band_members = Array.make bands [] in
  let band_width = Array.make bands 0 in
  let cursor = ref 0 in
  Array.iter
    (fun idx ->
      let _, c = instances_spec.(idx) in
      (* first-fit from a rotating cursor keeps bands balanced *)
      let rec place tries b =
        if tries >= bands then
          (* overflow: put it in the widest-remaining band anyway *)
          let best = ref 0 in
          for k = 1 to bands - 1 do
            if band_width.(k) < band_width.(!best) then best := k
          done;
          !best
        else if band_width.(b) + c.Cells.width_cols <= width_cols then b
        else place (tries + 1) ((b + 1) mod bands)
      in
      let b = place 0 !cursor in
      cursor := (b + 1) mod bands;
      band_members.(b) <- idx :: band_members.(b);
      band_width.(b) <- band_width.(b) + c.Cells.width_cols)
    order;
  let placed = Array.make profile.instance_count None in
  Array.iteri
    (fun b members ->
      let members = Array.of_list (List.rev members) in
      let used = band_width.(b) in
      let free = max 0 (width_cols - used) in
      let n = Array.length members in
      let x = ref 0 and remaining_free = ref free in
      Array.iteri
        (fun i idx ->
          (* spread the free space as random gaps before cells *)
          let slots_left = n - i in
          let gap =
            if !remaining_free = 0 then 0
            else Random.State.int rng (1 + (2 * !remaining_free / slots_left))
          in
          let gap = min gap !remaining_free in
          remaining_free := !remaining_free - gap;
          x := !x + gap;
          let name, c = instances_spec.(idx) in
          placed.(idx) <-
            Some { i_name = name; cell = c; col = !x; band = b; flipped = b land 1 = 1 };
          x := !x + c.Cells.width_cols)
        members)
    band_members;
  let instances =
    Array.map (function Some i -> i | None -> assert false) placed
  in
  (* Locality-biased netlist: each driver connects to 1..4 unused input
     pins of instances within a window around it. *)
  let input_used = Hashtbl.create (profile.instance_count * 2) in
  let nets = ref [] in
  let nnets = ref 0 in
  let window_cols = max 8 (width_cols / 10) and window_bands = 3 in
  Array.iteri
    (fun i inst ->
      match Cells.outputs inst.cell with
      | [] -> ()
      | out :: _ ->
        let fanout = 1 + Random.State.int rng 4 in
        let loads = ref [] in
        let attempts = fanout * 8 in
        let found = ref 0 in
        let try_one () =
          (* sample a nearby instance by rejection *)
          let j = Random.State.int rng profile.instance_count in
          let cand = instances.(j) in
          let near =
            abs (cand.band - inst.band) <= window_bands
            && abs (cand.col - inst.col) <= window_cols
          in
          if near && j <> i then begin
            let free_inputs =
              List.filter
                (fun (p : Cells.pin) ->
                  not (Hashtbl.mem input_used (j, p.Cells.p_name)))
                (Cells.inputs cand.cell)
            in
            match free_inputs with
            | [] -> ()
            | p :: _ ->
              Hashtbl.replace input_used (j, p.Cells.p_name) ();
              loads := { inst = j; pin = p.Cells.p_name } :: !loads;
              incr found
          end
        in
        let k = ref 0 in
        while !found < fanout && !k < attempts do
          try_one ();
          incr k
        done;
        if !loads <> [] then begin
          nets :=
            {
              dn_name = Printf.sprintf "n%d" !nnets;
              driver = { inst = i; pin = out.Cells.p_name };
              loads = !loads;
            }
            :: !nets;
          incr nnets
        end)
    instances;
  let achieved_util =
    float_of_int total_width /. float_of_int (width_cols * bands)
  in
  {
    d_name = Printf.sprintf "%s-%s-u%02.0f" profile.pr_name tech.Tech.name (util *. 100.0);
    tech;
    profile;
    target_util = util;
    width_cols;
    bands;
    instances;
    nets = Array.of_list (List.rev !nets);
    achieved_util;
  }

let find_pin (inst : instance) name =
  match
    List.find_opt (fun (p : Cells.pin) -> String.equal p.Cells.p_name name)
      inst.cell.Cells.pins
  with
  | Some p -> p
  | None -> raise Not_found

let access_positions t conn =
  let inst = t.instances.(conn.inst) in
  let p = find_pin inst conn.pin in
  let h = t.tech.Tech.cell_height_tracks in
  List.map
    (fun (dx, dy) ->
      let dy = if inst.flipped then h - 1 - dy else dy in
      (inst.col + dx, (inst.band * h) + dy))
    p.Cells.offsets

let pin_shape t conn =
  let inst = t.instances.(conn.inst) in
  let p = find_pin inst conn.pin in
  let h_nm = Tech.row_height t.tech in
  let base_x = inst.col * t.tech.Tech.vpitch in
  let base_y = inst.band * h_nm in
  let shape = p.Cells.shape in
  let shape =
    if inst.flipped then
      Rect.make ~xlo:shape.Rect.xlo ~ylo:(h_nm - shape.Rect.yhi)
        ~xhi:shape.Rect.xhi ~yhi:(h_nm - shape.Rect.ylo)
    else shape
  in
  Rect.translate shape (Optrouter_geom.Point.make base_x base_y)

let extent t = (t.width_cols, t.bands * t.tech.Tech.cell_height_tracks)

let pp ppf t =
  Format.fprintf ppf "%s: %d instances, %d nets, %dx%d cols/bands, util %.1f%%"
    t.d_name (Array.length t.instances) (Array.length t.nets) t.width_cols
    t.bands (t.achieved_util *. 100.0)
