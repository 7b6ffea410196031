(* Domain-safety lint (see par_lint.mli for the model and its limits).

   The analysis is a context-sensitive abstract walk of one file's AST:
   values are tracked as mutable roots / atomics / known functions /
   opaque, same-file calls are inlined at the call site (so lock
   protection flows from caller to callee), and every access to a
   mutable root is recorded with the lexically held lock set and the
   parallel-closure id it happens under. A post-pass classifies the
   recorded accesses into P001/P002/P006; P003/P004 are purely
   syntactic and run as separate passes; P005 fires during the walk
   whenever a known-blocking call happens under a held lock. *)

open Parsetree
open Asttypes

module Report = Optrouter_report.Report

type finding = {
  code : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let codes =
  [
    ("P000", "file does not parse");
    ( "P001",
      "parallel closure mutates captured mutable state without a lock while \
       it is also accessed outside the closure" );
    ( "P002",
      "parallel closure mutates captured mutable state with neither Mutex \
       nor Atomic discipline" );
    ( "P003",
      "Atomic.get -> test -> Atomic.set on the same atomic: lost-update \
       window; use Atomic.compare_and_set" );
    ( "P004",
      "Condition.wait outside any while loop or self-recursive let rec \
       body: re-test the predicate after wakeup" );
    ("P005", "blocking call while holding a mutex");
    ( "P006",
      "unguarded parallel read of a field other parallel accesses guard \
       with a lock" );
  ]

(* ------------------------------------------------------------------ *)
(* Small AST helpers                                                   *)

let rec longident = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, s) -> longident l ^ "." ^ s
  | Longident.Lapply _ -> "<apply>"

let strip_stdlib s =
  match String.index_opt s '.' with
  | Some 6 when String.sub s 0 6 = "Stdlib" ->
    String.sub s 7 (String.length s - 7)
  | _ -> s

(* [name] is exactly [suf], or ends with [.suf]: module aliases keep the
   meaningful tail (Optrouter_exec.Pool.map still ends in "Pool.map"). *)
let has_suffix ~suf name =
  let ln = String.length name and ls = String.length suf in
  (ln = ls && name = suf)
  || ln > ls + 1
     && String.sub name (ln - ls) ls = suf
     && name.[ln - ls - 1] = '.'

let any_suffix names name = List.exists (fun suf -> has_suffix ~suf name) names

let head_name e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (strip_stdlib (longident txt))
  | _ -> None

(* Best-effort stable rendering of an access path (lock and atomic
   identity): idents and field chains render naturally, anything else
   degrades to a location-tagged placeholder so two distinct complex
   expressions never alias. *)
let rec render_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> longident txt
  | Pexp_field (b, { txt; _ }) ->
    render_path b ^ "." ^ Longident.last txt
  | Pexp_constraint (inner, _) -> render_path inner
  | _ ->
    let p = e.pexp_loc.Location.loc_start in
    Printf.sprintf "<expr:%d:%d>" p.Lexing.pos_lnum
      (p.Lexing.pos_cnum - p.Lexing.pos_bol)

let path_head path =
  match String.index_opt path '.' with
  | Some i -> String.sub path 0 i
  | None -> path

let rec pat_vars p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (q, { txt; _ }) -> txt :: pat_vars q
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pat_vars ps
  | Ppat_constraint (q, _) | Ppat_lazy q | Ppat_exception q -> pat_vars q
  | Ppat_open (_, q) -> pat_vars q
  | Ppat_construct (_, Some (_, q)) -> pat_vars q
  | Ppat_variant (_, Some q) -> pat_vars q
  | Ppat_record (fields, _) -> List.concat_map (fun (_, q) -> pat_vars q) fields
  | Ppat_or (a, b) -> pat_vars a @ pat_vars b
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Name tables                                                         *)

let mutable_creators =
  [
    "ref"; "Hashtbl.create"; "Buffer.create"; "Queue.create"; "Stack.create";
    "Array.make"; "Array.create_float"; "Array.make_matrix"; "Array.init";
    "Array.copy"; "Array.of_list"; "Array.sub"; "Array.append";
    "Bytes.create"; "Bytes.make"; "Bytes.of_string";
  ]

let par_entry_names = [ "Domain.spawn"; "Pool.map"; "Pool.map_result" ]

let blocking_names =
  [
    "Unix.read"; "Unix.write"; "Unix.select"; "Unix.accept"; "Unix.connect";
    "Unix.recv"; "Unix.recvfrom"; "Unix.send"; "Unix.sendto"; "Unix.sleep";
    "Unix.sleepf"; "Unix.waitpid"; "Unix.system"; "Unix.openfile";
    "Domain.join"; "Pool.map"; "Pool.map_result"; "Thread.delay";
    "Thread.join"; "input_line"; "really_input"; "really_input_string";
    "input_char"; "input_byte"; "input_value"; "open_in"; "open_in_bin";
    "open_out"; "open_out_bin"; "output_string"; "output_bytes";
    "output_value"; "flush"; "close_in"; "close_out"; "read_line";
  ]

(* [(name, index of the mutated/read container among the positional
   args)]. [Array.length]/[Bytes.length] read only the immutable header
   and are deliberately absent. *)
let write_ops =
  [
    ("Hashtbl.replace", 0); ("Hashtbl.add", 0); ("Hashtbl.remove", 0);
    ("Hashtbl.reset", 0); ("Hashtbl.clear", 0);
    ("Hashtbl.filter_map_inplace", 1);
    ("Queue.push", 1); ("Queue.add", 1); ("Queue.pop", 0); ("Queue.take", 0);
    ("Queue.clear", 0);
    ("Stack.push", 1); ("Stack.pop", 0); ("Stack.clear", 0);
    ("Buffer.add_string", 0); ("Buffer.add_char", 0); ("Buffer.add_bytes", 0);
    ("Buffer.add_buffer", 0); ("Buffer.clear", 0); ("Buffer.reset", 0);
    ("Buffer.truncate", 0);
    ("Array.set", 0); ("Array.unsafe_set", 0); ("Array.fill", 0);
    ("Array.blit", 2);
    ("Bytes.set", 0); ("Bytes.unsafe_set", 0); ("Bytes.fill", 0);
    ("Bytes.blit", 2);
  ]

let read_ops =
  [
    ("Hashtbl.find", 0); ("Hashtbl.find_opt", 0); ("Hashtbl.find_all", 0);
    ("Hashtbl.mem", 0); ("Hashtbl.length", 0); ("Hashtbl.iter", 1);
    ("Hashtbl.fold", 1); ("Hashtbl.copy", 0);
    ("Queue.is_empty", 0); ("Queue.length", 0); ("Queue.peek", 0);
    ("Queue.peek_opt", 0); ("Queue.top", 0); ("Queue.iter", 1);
    ("Queue.fold", 2);
    ("Stack.is_empty", 0); ("Stack.length", 0); ("Stack.top", 0);
    ("Buffer.contents", 0); ("Buffer.length", 0); ("Buffer.to_bytes", 0);
    ("Buffer.sub", 0); ("Buffer.nth", 0);
    ("Array.get", 0); ("Array.unsafe_get", 0); ("Array.iter", 1);
    ("Array.iteri", 1); ("Array.map", 1); ("Array.mapi", 1);
    ("Array.to_list", 0); ("Array.fold_left", 2);
    ("Bytes.get", 0); ("Bytes.unsafe_get", 0);
  ]

let op_index name ops =
  List.fold_left
    (fun acc (n, i) -> if has_suffix ~suf:n name then Some i else acc)
    None ops

(* ------------------------------------------------------------------ *)
(* Abstract values and analysis state                                  *)

type root = {
  rid : int;
  mutable rname : string;  (** creator name until a let binds it *)
  rkind : string;
  rline : int;
  rpar : int option;  (** parallel closure the value was allocated in *)
}

type value =
  | Mut of root * string  (** mutable root + field path inside it *)
  | Atom
  | Func of func
  | Opaque

and func = {
  fparams : (arg_label * pattern) list;
  fbodies : expression list;
  fkey : expression;  (** cycle check is physical equality on this *)
  mutable fenv : (string * binding) list;
}

and binding = { bval : value; bscope : int option }


type ctx = { par : int option; stack : expression list; depth : int }

type access = {
  a_pid : int option;
  a_write : bool;
  a_locks : string list;
  a_loc : Location.t;
}

type st = {
  filename : string;
  mutable findings : finding list;
  accesses : (int * string, root * access list ref) Hashtbl.t;
  pseudo : (string, root) Hashtbl.t;
  mfields : (string, unit) Hashtbl.t;
  mutable next_rid : int;
  mutable next_pid : int;
  mutable fuel : int;
}

let max_depth = 50

let add_finding st (loc : Location.t) code message =
  let p = loc.Location.loc_start in
  st.findings <-
    {
      code;
      file = st.filename;
      line = p.Lexing.pos_lnum;
      col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
      message;
    }
    :: st.findings

let new_root st ctx ~name ~kind (loc : Location.t) =
  let rid = st.next_rid in
  st.next_rid <- rid + 1;
  {
    rid;
    rname = name;
    rkind = kind;
    rline = loc.Location.loc_start.Lexing.pos_lnum;
    rpar = ctx.par;
  }

let describe root path =
  let target = if path = "" then root.rname else root.rname ^ "." ^ path in
  Printf.sprintf "%s (%s, line %d)" target root.rkind root.rline

let record_access st ctx held root path ~write loc =
  let owned =
    match (root.rpar, ctx.par) with Some a, Some b -> a = b | _ -> false
  in
  if not owned then begin
    let key = (root.rid, path) in
    let accs =
      match Hashtbl.find_opt st.accesses key with
      | Some (_, accs) -> accs
      | None ->
        let accs = ref [] in
        Hashtbl.add st.accesses key (root, accs);
        accs
    in
    accs :=
      { a_pid = ctx.par; a_write = write; a_locks = held; a_loc = loc }
      :: !accs
  end

(* A mutation through an opaque head inside a parallel closure: if the
   head identifier was not bound inside this closure, the target is
   captured shared state the analysis cannot resolve — track it under a
   pseudo-root so the post-pass reports it (P002 by default). *)
let pseudo_write st env ctx held e loc =
  match ctx.par with
  | None -> ()
  | Some _ ->
    let path = render_path e in
    let head = path_head path in
    let captured =
      match List.assoc_opt head env with
      | Some b -> b.bscope <> ctx.par
      | None -> true
    in
    if captured then begin
      let root =
        match Hashtbl.find_opt st.pseudo path with
        | Some r -> r
        | None ->
          let r =
            { (new_root st ctx ~name:path ~kind:"captured value" loc) with
              rpar = None }
          in
          Hashtbl.replace st.pseudo path r;
          r
      in
      record_access st ctx held root "" ~write:true loc
    end

let remove_one x xs =
  let rec go = function
    | [] -> []
    | y :: tl -> if y = x then tl else y :: go tl
  in
  go xs

let bind_var name v scope env = (name, { bval = v; bscope = scope }) :: env

let rec bind_pat env scope p v =
  match p.ppat_desc with
  | Ppat_var { txt; _ } ->
    (match v with
    | Mut (r, "") when r.rname = r.rkind || r.rname.[0] = '<' ->
      r.rname <- txt
    | _ -> ());
    bind_var txt v scope env
  | Ppat_constraint (q, _) -> bind_pat env scope q v
  | Ppat_alias (q, { txt; _ }) -> bind_pat (bind_var txt v scope env) scope q v
  | _ ->
    List.fold_left (fun env n -> bind_var n Opaque scope env) env (pat_vars p)

(* Collapse a [fun]/[function] chain into parameters and bodies. *)
let rec as_func e =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, pat, body) ->
    let rec chain acc b =
      match b.pexp_desc with
      | Pexp_fun (lbl', _, pat', body') -> chain ((lbl', pat') :: acc) body'
      | Pexp_newtype (_, body') -> chain acc body'
      | _ -> (List.rev acc, b)
    in
    let params, fbody = chain [ (lbl, pat) ] body in
    Some { fparams = params; fbodies = [ fbody ]; fkey = e; fenv = [] }
  | Pexp_newtype (_, body) -> as_func body
  | Pexp_function cases ->
    let bodies =
      List.concat_map
        (fun c ->
          match c.pc_guard with
          | Some g -> [ g; c.pc_rhs ]
          | None -> [ c.pc_rhs ])
        cases
    in
    Some
      {
        fparams = [ (Nolabel, Ast_helper.Pat.any ()) ];
        fbodies = bodies;
        fkey = e;
        fenv = [];
      }
  | Pexp_constraint (inner, _) -> as_func inner
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)

let rec walk st env ctx held e : string list * value =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
    let name = longident txt in
    let v =
      match List.assoc_opt name env with Some b -> b.bval | None -> Opaque
    in
    (held, v)
  | Pexp_constant _ -> (held, Opaque)
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> begin
    match as_func e with
    | Some f ->
      f.fenv <- env;
      (held, Func f)
    | None -> (held, Opaque)
  end
  | Pexp_let (rf, vbs, body) ->
    let env', held' = process_bindings st env ctx held rf vbs in
    walk st env' ctx held' body
  | Pexp_apply (head, args) -> walk_apply st env ctx held e head args
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    let held', sv = walk st env ctx held scrut in
    List.iter
      (fun c ->
        let env' = bind_pat env ctx.par c.pc_lhs sv in
        (match c.pc_guard with
        | Some g -> ignore (walk st env' ctx held' g)
        | None -> ());
        ignore (walk st env' ctx held' c.pc_rhs))
      cases;
    (held', Opaque)
  | Pexp_ifthenelse (c, t, eo) ->
    let held', _ = walk st env ctx held c in
    ignore (walk st env ctx held' t);
    (match eo with
    | Some els -> ignore (walk st env ctx held' els)
    | None -> ());
    (held', Opaque)
  | Pexp_sequence (a, b) ->
    let held', _ = walk st env ctx held a in
    walk st env ctx held' b
  | Pexp_while (c, body) ->
    ignore (walk st env ctx held c);
    ignore (walk st env ctx held body);
    (held, Opaque)
  | Pexp_for (pat, lo, hi, _, body) ->
    ignore (walk st env ctx held lo);
    ignore (walk st env ctx held hi);
    let env' = bind_pat env ctx.par pat Opaque in
    ignore (walk st env' ctx held body);
    (held, Opaque)
  | Pexp_tuple es ->
    List.iter (fun x -> ignore (walk st env ctx held x)) es;
    (held, Opaque)
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) ->
    ignore (walk st env ctx held arg);
    (held, Opaque)
  | Pexp_construct (_, None) | Pexp_variant (_, None) -> (held, Opaque)
  | Pexp_array es ->
    List.iter (fun x -> ignore (walk st env ctx held x)) es;
    (held, Mut (new_root st ctx ~name:"<array>" ~kind:"array literal" e.pexp_loc, ""))
  | Pexp_record (fields, base) ->
    (match base with
    | Some b -> ignore (walk st env ctx held b)
    | None -> ());
    List.iter (fun (_, fe) -> ignore (walk st env ctx held fe)) fields;
    let has_mutable =
      List.exists
        (fun (({ txt; _ } : Longident.t loc), _) ->
          Hashtbl.mem st.mfields (Longident.last txt))
        fields
    in
    if has_mutable then
      ( held,
        Mut
          ( new_root st ctx ~name:"<record>"
              ~kind:"record with mutable field(s)" e.pexp_loc,
            "" ) )
    else (held, Opaque)
  | Pexp_field (base, { txt; _ }) ->
    let held', bv = walk st env ctx held base in
    let field = Longident.last txt in
    let v =
      match bv with
      | Mut (root, p) ->
        let path = if p = "" then field else p ^ "." ^ field in
        if Hashtbl.mem st.mfields field then
          record_access st ctx held' root path ~write:false e.pexp_loc;
        Mut (root, path)
      | _ -> Opaque
    in
    (held', v)
  | Pexp_setfield (base, { txt; _ }, rhs) ->
    let held', _ = walk st env ctx held rhs in
    let held'', bv = walk st env ctx held' base in
    let field = Longident.last txt in
    (match bv with
    | Mut (root, p) ->
      let path = if p = "" then field else p ^ "." ^ field in
      record_access st ctx held'' root path ~write:true e.pexp_loc
    | _ -> pseudo_write st env ctx held'' base e.pexp_loc);
    (held'', Opaque)
  | Pexp_constraint (inner, _) | Pexp_coerce (inner, _, _) ->
    walk st env ctx held inner
  | Pexp_assert inner | Pexp_lazy inner ->
    ignore (walk st env ctx held inner);
    (held, Opaque)
  | Pexp_open (_, inner) -> walk st env ctx held inner
  | Pexp_letmodule (_, _, inner) | Pexp_letexception (_, inner) ->
    walk st env ctx held inner
  | _ -> (held, Opaque)

(* Evaluate all arguments left to right, threading the lock set. *)
and walk_args st env ctx held args =
  List.fold_left
    (fun (held, acc) (lbl, a) ->
      let held', v = walk st env ctx held a in
      (held', (lbl, v, a) :: acc))
    (held, []) args
  |> fun (held, acc) -> (held, List.rev acc)

and walk_apply st env ctx held e head args =
  let loc = e.pexp_loc in
  match head_name head with
  | Some name when any_suffix [ "Mutex.lock" ] name ->
    let path = match args with (_, m) :: _ -> render_path m | [] -> "?" in
    (path :: held, Opaque)
  | Some name when any_suffix [ "Mutex.unlock" ] name ->
    let path = match args with (_, m) :: _ -> render_path m | [] -> "?" in
    (remove_one path held, Opaque)
  | Some name when any_suffix [ "Mutex.protect" ] name -> begin
    match args with
    | [ (_, m); (_, f) ] ->
      let path = render_path m in
      let _, fv = walk st env ctx held f in
      (match fv with
      | Func fn -> inline_func st ctx (path :: held) fn []
      | _ -> ());
      (held, Opaque)
    | _ -> (held, Opaque)
  end
  | Some name
    when any_suffix [ "Mutex.try_lock"; "Condition.wait"; "Condition.signal";
                      "Condition.broadcast" ] name ->
    (* P004 for Condition.wait runs as a separate syntactic pass; the
       mutex/condition operands are identity paths, not accesses. *)
    (held, Opaque)
  | Some name when any_suffix [ "Atomic.make" ] name ->
    List.iter (fun (_, a) -> ignore (walk st env ctx held a)) args;
    (held, Atom)
  | Some name
    when any_suffix [ "Atomic.get"; "Atomic.set"; "Atomic.exchange";
                      "Atomic.compare_and_set"; "Atomic.fetch_and_add";
                      "Atomic.incr"; "Atomic.decr" ] name ->
    (* first operand is the atomic itself (sanctioned; never an access);
       remaining operands are ordinary expressions *)
    (match args with
    | _ :: rest ->
      List.iter (fun (_, a) -> ignore (walk st env ctx held a)) rest
    | [] -> ());
    (held, Opaque)
  | Some name when blocking_here st name held loc ->
    (* P005 reported inside [blocking_here]; still analyze the call *)
    walk_apply_general st env ctx held e head args
  | Some name -> begin
    if any_suffix par_entry_names name then begin
      let held', argvals = walk_args st env ctx held args in
      List.iter
        (fun (lbl, v, _) ->
          match (lbl, v) with
          | Nolabel, Func f -> par_walk st ctx f
          | _, Func f -> walk_func_opaque st ctx held' f
          | _ -> ())
        argvals;
      (held', Opaque)
    end
    else
      match (List.mem (strip_stdlib name) [ ":="; "incr"; "decr" ],
             strip_stdlib name = "!")
      with
      | true, _ -> begin
        match args with
        | (_, lhs) :: rest ->
          List.iter (fun (_, a) -> ignore (walk st env ctx held a)) rest;
          let held', lv = walk st env ctx held lhs in
          (match lv with
          | Mut (root, p) -> record_access st ctx held' root p ~write:true loc
          | Atom -> ()
          | _ -> pseudo_write st env ctx held' lhs loc);
          (held', Opaque)
        | [] -> (held, Opaque)
      end
      | _, true -> begin
        match args with
        | [ (_, lhs) ] ->
          let held', lv = walk st env ctx held lhs in
          (match lv with
          | Mut (root, p) -> record_access st ctx held' root p ~write:false loc
          | _ -> ());
          (held', Opaque)
        | _ -> (held, Opaque)
      end
      | _ ->
        if List.mem (strip_stdlib name) mutable_creators then begin
          List.iter (fun (_, a) -> ignore (walk st env ctx held a)) args;
          ( held,
            Mut
              ( new_root st ctx ~name:(strip_stdlib name)
                  ~kind:(strip_stdlib name) loc,
                "" ) )
        end
        else begin
          match (op_index name write_ops, op_index name read_ops) with
          | Some idx, _ | None, Some idx ->
            let write = op_index name write_ops <> None in
            let held', argvals = walk_args st env ctx held args in
            let arr = Array.of_list argvals in
            (if idx < Array.length arr then
               let _, v, a = arr.(idx) in
               match v with
               | Mut (root, p) -> record_access st ctx held' root p ~write loc
               | Atom | Func _ -> ()
               | Opaque -> if write then pseudo_write st env ctx held' a loc);
            (* callback arguments to read combinators (iter/fold/map)
               run synchronously: walk them under the current locks *)
            if not write then
              Array.iter
                (fun (_, v, _) ->
                  match v with
                  | Func f -> walk_func_opaque st ctx held' f
                  | _ -> ())
                arr;
            (held', Opaque)
          | None, None -> walk_apply_general st env ctx held e head args
        end
  end
  | None -> walk_apply_general st env ctx held e head args

and walk_apply_general st env ctx held _e head args =
  let held', hv = walk st env ctx held head in
  let held'', argvals = walk_args st env ctx held' args in
  match hv with
  | Func f ->
    let v = apply_func st ctx held'' f (List.map (fun (l, v, _) -> (l, v)) argvals) in
    (held'', v)
  | _ ->
    (* unknown callee: closure arguments are assumed to run
       synchronously under the current locks (List.iter & friends) *)
    List.iter
      (fun (_, v, _) ->
        match v with Func f -> walk_func_opaque st ctx held'' f | _ -> ())
      argvals;
    (held'', Opaque)

and blocking_here st name held (loc : Location.t) =
  if held <> [] && any_suffix blocking_names name then begin
    add_finding st loc "P005"
      (Printf.sprintf
         "blocking call %s while holding %s; lock hold times must stay \
          bounded — move the call outside the critical section"
         name
         (String.concat " and " held));
    true
  end
  else false

(* Apply a known same-file function to evaluated arguments: positional
   arguments fill positional parameters in order, labelled arguments
   their labels. Unfilled parameters make the result a partial
   application (a closure value); otherwise the body is walked in place
   with the caller's lock set — the whole point of the inlining. *)
and apply_func st ctx held f argvals =
  let params = Array.of_list f.fparams in
  let n = Array.length params in
  let bound = Array.make n None in
  let label_of i = fst params.(i) in
  let try_bind pos v =
    match pos with
    | Some i -> bound.(i) <- Some v
    | None -> ()
  in
  List.iter
    (fun (lbl, v) ->
      let pos = ref None in
      (try
         for i = 0 to n - 1 do
           if bound.(i) = None && !pos = None then begin
             match (lbl, label_of i) with
             | Nolabel, Nolabel -> pos := Some i; raise Exit
             | (Labelled l | Optional l), (Labelled l' | Optional l')
               when l = l' ->
               pos := Some i;
               raise Exit
             | _ -> ()
           end
         done
       with Exit -> ());
      try_bind !pos v)
    argvals;
  let missing_positional = ref false in
  Array.iteri
    (fun i b ->
      match (b, label_of i) with
      | None, Nolabel -> missing_positional := true
      | _ -> ())
    bound;
  if !missing_positional then begin
    (* partial application: close over the bound prefix *)
    let rem = ref [] and benv = ref f.fenv in
    Array.iteri
      (fun i b ->
        match b with
        | Some v -> benv := bind_pat !benv ctx.par (snd params.(i)) v
        | None -> rem := params.(i) :: !rem)
      bound;
    Func
      { fparams = List.rev !rem; fbodies = f.fbodies; fkey = f.fkey;
        fenv = !benv }
  end
  else begin
    let bindings =
      Array.to_list (Array.mapi (fun i b -> (snd params.(i), b)) bound)
    in
    inline_func st ctx held f bindings;
    Opaque
  end

and inline_func st ctx held f bindings =
  if st.fuel > 0 && ctx.depth < max_depth
     && not (List.memq f.fkey ctx.stack)
  then begin
    st.fuel <- st.fuel - 1;
    let env =
      List.fold_left
        (fun env (pat, b) ->
          bind_pat env ctx.par pat (Option.value b ~default:Opaque))
        f.fenv bindings
    in
    let ctx' = { ctx with stack = f.fkey :: ctx.stack; depth = ctx.depth + 1 } in
    List.iter (fun b -> ignore (walk st env ctx' held b)) f.fbodies
  end

(* Walk a closure handed to a parallel entry point: a fresh closure id,
   an empty lock set, parameters opaque and owned by the closure. *)
and par_walk st ctx f =
  if st.fuel > 0 && ctx.depth < max_depth
     && not (List.memq f.fkey ctx.stack)
  then begin
    st.fuel <- st.fuel - 1;
    let pid = st.next_pid in
    st.next_pid <- pid + 1;
    let env =
      List.fold_left
        (fun env (_, pat) -> bind_pat env (Some pid) pat Opaque)
        f.fenv f.fparams
    in
    let ctx' =
      { par = Some pid; stack = f.fkey :: ctx.stack; depth = ctx.depth + 1 }
    in
    List.iter (fun b -> ignore (walk st env ctx' [] b)) f.fbodies
  end

(* Walk a closure whose call site is unknown but same-domain (callback
   to an external combinator, labelled argument of a parallel entry):
   current closure id and lock set, opaque parameters. *)
and walk_func_opaque st ctx held f =
  inline_func st ctx held f (List.map (fun (_, p) -> (p, None)) f.fparams)

(* Local and toplevel let-bindings share this path. Bound functions get
   a definition-site walk (so their P-checks run even if no same-file
   call reaches them); at an actual call site they are walked again
   with the caller's locks, and duplicate findings are deduplicated at
   the end. *)
and process_bindings st env ctx held rf vbs =
  match rf with
  | Nonrecursive ->
    let held', env' =
      List.fold_left
        (fun (held, env') vb ->
          let held', v = walk st env ctx held vb.pvb_expr in
          (held', bind_pat env' ctx.par vb.pvb_pat v))
        (held, env) vbs
    in
    def_walk_bound st ctx held' env' vbs;
    (env', held')
  | Recursive ->
    let shells =
      List.map
        (fun vb ->
          match as_func vb.pvb_expr with
          | Some f -> (vb, Some f)
          | None -> (vb, None))
        vbs
    in
    let env' =
      List.fold_left
        (fun env' (vb, sh) ->
          match sh with
          | Some f -> bind_pat env' ctx.par vb.pvb_pat (Func f)
          | None -> bind_pat env' ctx.par vb.pvb_pat Opaque)
        env shells
    in
    List.iter
      (fun (_, sh) -> match sh with Some f -> f.fenv <- env' | None -> ())
      shells;
    List.iter
      (fun (vb, sh) ->
        match sh with
        | Some f -> walk_func_opaque st ctx held f
        | None -> ignore (walk st env' ctx held vb.pvb_expr))
      shells;
    (env', held)

and def_walk_bound st ctx held env vbs =
  List.iter
    (fun vb ->
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt; _ } -> begin
        match List.assoc_opt txt env with
        | Some { bval = Func f; _ } -> walk_func_opaque st ctx held f
        | _ -> ()
      end
      | _ -> ())
    vbs

(* ------------------------------------------------------------------ *)
(* Structure traversal                                                 *)

let rec process_items st env ctx items =
  List.fold_left
    (fun env item ->
      match item.pstr_desc with
      | Pstr_value (rf, vbs) ->
        let env', _ = process_bindings st env ctx [] rf vbs in
        env'
      | Pstr_eval (e, _) ->
        ignore (walk st env ctx [] e);
        env
      | Pstr_module mb -> begin
        match mb.pmb_expr.pmod_desc with
        | Pmod_structure inner ->
          let before = List.length env in
          let env' = process_items st env ctx inner in
          let added = List.length env' - before in
          let rec take k l =
            if k <= 0 then []
            else match l with [] -> [] | x :: tl -> x :: take (k - 1) tl
          in
          let news = take added env' in
          begin
            match mb.pmb_name.txt with
            | Some m ->
              List.fold_left
                (fun env (n, b) -> (m ^ "." ^ n, b) :: env)
                env (List.rev news)
            | None -> env
          end
        | _ -> env
      end
      | _ -> env)
    env items

(* ------------------------------------------------------------------ *)
(* Post-pass classification (P001 / P002 / P006)                       *)

let classify st =
  Hashtbl.iter
    (fun (_, path) (root, accs) ->
      let accs = !accs in
      let par_accs = List.filter (fun a -> a.a_pid <> None) accs in
      List.iter
        (fun a ->
          if a.a_write && a.a_locks = [] then begin
            let other = List.exists (fun b -> b.a_pid <> a.a_pid) accs in
            let what = describe root path in
            if other then
              add_finding st a.a_loc "P001"
                (Printf.sprintf
                   "parallel closure mutates %s without a lock while it is \
                    also accessed outside the closure; guard both sides \
                    with one mutex or switch to Atomic"
                   what)
            else
              add_finding st a.a_loc "P002"
                (Printf.sprintf
                   "parallel closure mutates captured %s with neither Mutex \
                    nor Atomic discipline"
                   what)
          end)
        par_accs;
      let locked = List.filter (fun a -> a.a_locks <> []) par_accs in
      let has_par_write = List.exists (fun a -> a.a_write) par_accs in
      if locked <> [] && has_par_write then
        List.iter
          (fun a ->
            if (not a.a_write) && a.a_locks = [] then
              add_finding st a.a_loc "P006"
                (Printf.sprintf
                   "unguarded parallel read of %s while other parallel \
                    accesses hold %s"
                   (describe root path)
                   (String.concat " and " (List.hd locked).a_locks)))
          par_accs)
    st.accesses

(* ------------------------------------------------------------------ *)
(* Syntactic passes: P003 and P004                                     *)

let atomic_ops e =
  let out = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it x ->
          (match x.pexp_desc with
          | Pexp_apply (head, (_, arg0) :: _) -> begin
            match head_name head with
            | Some n
              when any_suffix
                     [ "Atomic.get"; "Atomic.set"; "Atomic.compare_and_set";
                       "Atomic.exchange"; "Atomic.fetch_and_add";
                       "Atomic.incr"; "Atomic.decr" ] n ->
              let op =
                match String.rindex_opt n '.' with
                | Some i -> String.sub n (i + 1) (String.length n - i - 1)
                | None -> n
              in
              out := (op, render_path arg0, x.pexp_loc) :: !out
            | _ -> ()
          end
          | _ -> ());
          Ast_iterator.default_iterator.expr it x);
    }
  in
  it.Ast_iterator.expr it e;
  !out

let cas_family = [ "compare_and_set"; "exchange"; "fetch_and_add"; "incr"; "decr" ]

let p003_check st e =
  let report path (loc : Location.t) =
    add_finding st loc "P003"
      (Printf.sprintf
         "Atomic.get -> test -> Atomic.set on %s is a lost-update window \
          under domains; use Atomic.compare_and_set in a retry loop"
         path)
  in
  match e.pexp_desc with
  | Pexp_ifthenelse (c, t, eo) ->
    let gets =
      List.filter_map
        (fun (op, p, _) -> if op = "get" then Some p else None)
        (atomic_ops c)
    in
    let branch_ops =
      atomic_ops t @ (match eo with Some x -> atomic_ops x | None -> [])
    in
    let cas =
      List.filter_map
        (fun (op, p, _) -> if List.mem op cas_family then Some p else None)
        (atomic_ops e)
    in
    List.iter
      (fun (op, p, loc) ->
        if op = "set" && List.mem p gets && not (List.mem p cas) then
          report p loc)
      branch_ops
  | Pexp_let (_, [ vb ], body) -> begin
    match vb.pvb_expr.pexp_desc with
    | Pexp_apply (head, (_, arg0) :: _) -> begin
      match head_name head with
      | Some n when any_suffix [ "Atomic.get" ] n ->
        let p = render_path arg0 in
        let ops = atomic_ops body in
        let exempt =
          List.exists (fun (op, q, _) -> q = p && List.mem op cas_family) ops
        in
        if not exempt then begin
          (* only a [set] sitting inside a conditional branch of the
             body is the read-test-write shape *)
          let in_branch = ref [] in
          let it =
            {
              Ast_iterator.default_iterator with
              expr =
                (fun it x ->
                  (match x.pexp_desc with
                  | Pexp_ifthenelse (_, bt, beo) ->
                    in_branch := atomic_ops bt @ !in_branch;
                    (match beo with
                    | Some be -> in_branch := atomic_ops be @ !in_branch
                    | None -> ())
                  | _ -> ());
                  Ast_iterator.default_iterator.expr it x);
            }
          in
          it.Ast_iterator.expr it body;
          List.iter
            (fun (op, q, loc) -> if op = "set" && q = p then report p loc)
            !in_branch
        end
      | _ -> ()
    end
    | _ -> ()
  end
  | _ -> ()

let p003_pass st str =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          p003_check st e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.Ast_iterator.structure it str

let p004_pass st str =
  let looped = ref false in
  let with_loop v f =
    let saved = !looped in
    looped := v;
    f ();
    looped := saved
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_while (c, body) ->
            it.Ast_iterator.expr it c;
            with_loop true (fun () -> it.Ast_iterator.expr it body)
          | Pexp_for (_, lo, hi, _, body) ->
            it.Ast_iterator.expr it lo;
            it.Ast_iterator.expr it hi;
            with_loop true (fun () -> it.Ast_iterator.expr it body)
          | Pexp_let (Recursive, vbs, body) ->
            with_loop true (fun () ->
                List.iter (fun vb -> it.Ast_iterator.expr it vb.pvb_expr) vbs);
            it.Ast_iterator.expr it body
          | Pexp_apply (head, args) -> begin
            (match head_name head with
            | Some n when any_suffix [ "Condition.wait" ] n && not !looped ->
              add_finding st e.pexp_loc "P004"
                "Condition.wait outside any while loop or self-recursive \
                 let rec body: spurious wakeups and missed signals require \
                 re-testing the predicate around the wait"
            | _ -> ());
            it.Ast_iterator.expr it head;
            List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args
          end
          | _ -> Ast_iterator.default_iterator.expr it e);
      structure_item =
        (fun it si ->
          match si.pstr_desc with
          | Pstr_value (Recursive, vbs) ->
            with_loop true (fun () ->
                List.iter (fun vb -> it.Ast_iterator.expr it vb.pvb_expr) vbs)
          | _ -> Ast_iterator.default_iterator.structure_item it si);
    }
  in
  it.Ast_iterator.structure it str

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let collect_mutable_fields str =
  let tbl = Hashtbl.create 16 in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun it td ->
          (match td.ptype_kind with
          | Ptype_record lds ->
            List.iter
              (fun ld ->
                if ld.pld_mutable = Mutable then
                  Hashtbl.replace tbl ld.pld_name.txt ())
              lds
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration it td);
    }
  in
  it.Ast_iterator.structure it str;
  tbl

let compare_findings a b =
  match compare a.line b.line with
  | 0 -> begin
    match compare a.col b.col with 0 -> compare a.code b.code | c -> c
  end
  | c -> c

let dedupe fs =
  let rec go = function
    | a :: (b :: _ as tl) when a.code = b.code && a.line = b.line && a.col = b.col
      ->
      go tl
    | a :: tl -> a :: go tl
    | [] -> []
  in
  go fs

let lint_structure ~filename str =
  let st =
    {
      filename;
      findings = [];
      accesses = Hashtbl.create 64;
      pseudo = Hashtbl.create 16;
      mfields = collect_mutable_fields str;
      next_rid = 0;
      next_pid = 0;
      fuel = 50_000;
    }
  in
  let ctx0 = { par = None; stack = []; depth = 0 } in
  ignore (process_items st [] ctx0 str);
  classify st;
  p003_pass st str;
  p004_pass st str;
  dedupe (List.sort compare_findings st.findings)

let parse_string ~filename src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf filename;
  Parse.implementation lexbuf

let lint_string ~filename src =
  match parse_string ~filename src with
  | str -> lint_structure ~filename str
  | exception _parse_exn ->
    [
      {
        code = "P000";
        file = filename;
        line = 1;
        col = 0;
        message = "file does not parse";
      };
    ]

let inventory ~filename src =
  match parse_string ~filename src with
  | exception _parse_exn -> []
  | str ->
    let mfields = collect_mutable_fields str in
    let out = ref [] in
    let kind_of e =
      match e.pexp_desc with
      | Pexp_apply (head, _) -> begin
        match head_name head with
        | Some n when List.mem (strip_stdlib n) ("Atomic.make" :: mutable_creators)
          ->
          Some (strip_stdlib n)
        | _ -> None
      end
      | Pexp_array _ -> Some "array literal"
      | Pexp_record (fields, _)
        when List.exists
               (fun (({ txt; _ } : Longident.t loc), _) ->
                 Hashtbl.mem mfields (Longident.last txt))
               fields ->
        Some "record with mutable field(s)"
      | _ -> None
    in
    let note vb =
      match kind_of vb.pvb_expr with
      | Some kind ->
        let name =
          match pat_vars vb.pvb_pat with n :: _ -> n | [] -> "_"
        in
        let line = vb.pvb_loc.Location.loc_start.Lexing.pos_lnum in
        out := (line, name, kind) :: !out
      | None -> ()
    in
    let it =
      {
        Ast_iterator.default_iterator with
        value_binding =
          (fun it vb ->
            note vb;
            Ast_iterator.default_iterator.value_binding it vb);
      }
    in
    it.Ast_iterator.structure it str;
    List.sort compare !out

let lint_file file =
  let ic = open_in_bin file in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  lint_string ~filename:file src

let lint_paths paths =
  List.concat_map lint_file (Source_lint.ml_files_under paths)

let render fs =
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d:%d: [%s] %s\n" f.file f.line f.col f.code
           f.message))
    fs;
  Buffer.contents buf

let to_json fs =
  Report.Json.to_string
    (Report.Json.Obj
       [
         ("findings", Report.Json.Int (List.length fs));
         ( "diagnostics",
           Report.Json.List
             (List.map
                (fun f ->
                  Report.Json.Obj
                    [
                      ("code", Report.Json.String f.code);
                      ("file", Report.Json.String f.file);
                      ("line", Report.Json.Int f.line);
                      ("col", Report.Json.Int f.col);
                      ("message", Report.Json.String f.message);
                    ])
                fs) );
       ])
