type source = { path : string; text : string; mli_exists : bool }

type rule = { id : string; title : string }

let registry =
  [ { id = "L1";
      title = "no bare failwith / Failure — raise typed errors instead" };
    { id = "L2";
      title = "no catch-all exception handler that discards the exception" };
    { id = "L3";
      title = "no polymorphic compare/equality/hash on storage or physical values" };
    { id = "L4"; title = "every module under lib/ declares an interface (.mli)" };
    { id = "L5"; title = "Metrics counter names are literal, well-formed and unique" };
    { id = "L6"; title = "no stdout writes in lib/server — responses go over the wire" };
    { id = "L7";
      title =
        "no unprotected shared mutable state in modules reachable from Domain.spawn" };
    { id = "L8"; title = "no Domain.spawn outside the sanctioned sites" };
    { id = "L9"; title = "no blocking call while a latch is held in the same body" } ]

(* --- location helpers ---------------------------------------------------- *)

let line_col (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let last_of = function
  | Longident.Lident s -> s
  | Longident.Ldot (_, s) -> s
  | Longident.Lapply _ -> ""

let rec module_last = function
  | Longident.Lident s -> s
  | Longident.Ldot (_, s) -> s
  | Longident.Lapply (_, r) -> module_last r

(* --- parsing ------------------------------------------------------------- *)

let parse_implementation src =
  let lexbuf = Lexing.from_string src.text in
  Location.init lexbuf src.path;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception Syntaxerr.Error err ->
    let line, col = line_col (Syntaxerr.location_of_error err) in
    Error (Finding.v ~rule:"PARSE" ~file:src.path ~line ~col "syntax error")
  | exception Lexer.Error (_, loc) ->
    let line, col = line_col loc in
    Error (Finding.v ~rule:"PARSE" ~file:src.path ~line ~col "lexical error")

(* --- L1: no bare failwith / Failure -------------------------------------- *)

let check_l1 ~emit ast =
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } when last_of txt = "failwith" ->
      emit "L1" e.pexp_loc
        "bare failwith — raise Xqdb_error.Internal/Corrupt or a module-typed error"
    | Pexp_construct ({ txt; _ }, Some _) when last_of txt = "Failure" ->
      emit "L1" e.pexp_loc
        "Failure constructed directly — raise a typed error the engine can map to a status"
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it ast

(* --- L2: no catch-all exception handlers --------------------------------- *)

(* A handler pattern is "catch-all" when it matches every exception:
   [_], a bare variable, an alias or or-pattern thereof.  Returns the
   bound name when there is one, so the handler body can be checked for
   a re-raise. *)
let rec catch_all (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any -> Some None
  | Ppat_var { txt; _ } -> Some (Some txt)
  | Ppat_alias (inner, { txt; _ }) -> (
    match catch_all inner with Some _ -> Some (Some txt) | None -> None)
  | Ppat_or (a, b) -> (
    match catch_all a with Some x -> Some x | None -> catch_all b)
  | Ppat_constraint (inner, _) -> catch_all inner
  | _ -> None

let reraise_names = [ "raise"; "raise_notrace"; "reraise"; "raise_with_backtrace" ]

(* Does [body] re-raise the exception bound to [var]?  Passing it to
   [raise] / [Printexc.raise_with_backtrace] (in any argument position)
   counts; merely formatting it does not. *)
let reraises var (body : Parsetree.expression) =
  let found = ref false in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = f; _ }; _ }, args)
      when List.mem (last_of f) reraise_names ->
      List.iter
        (fun ((_, a) : _ * Parsetree.expression) ->
          match a.pexp_desc with
          | Pexp_ident { txt = Longident.Lident v; _ } when v = var -> found := true
          | _ -> ())
        args
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it body;
  !found

let check_l2 ~emit ast =
  let check_handler (c : Parsetree.case) (p : Parsetree.pattern) =
    match catch_all p with
    | None -> ()
    | Some None ->
      emit "L2" p.ppat_loc
        "catch-all `_` exception handler can swallow Disk_error/Pool_exhausted"
    | Some (Some v) ->
      if not (reraises v c.pc_rhs) then
        emit "L2" p.ppat_loc
          (Printf.sprintf
             "handler binds `%s` but never re-raises it — match the exceptions you \
              mean to handle"
             v)
  in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_try (_, cases) -> List.iter (fun c -> check_handler c c.Parsetree.pc_lhs) cases
    | Pexp_match (_, cases) ->
      List.iter
        (fun (c : Parsetree.case) ->
          match c.pc_lhs.ppat_desc with
          | Ppat_exception p -> check_handler c p
          | _ -> ())
        cases
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it ast

(* --- L3: no polymorphic compare on storage/physical values ---------------- *)

let l3_scope = [ "lib/storage/"; "lib/physical/"; "lib/xasr/" ]

let in_l3_scope path = List.exists (fun d -> String.starts_with ~prefix:d path) l3_scope

(* Whether the file locally binds the name [compare] (a value binding, a
   function parameter, a record field) — then a bare [compare] ident
   refers to the monomorphic local one, not Stdlib.compare. *)
let binds_compare ast =
  let found = ref false in
  let pat it (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_var { txt = "compare"; _ } -> found := true
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let type_declaration it (td : Parsetree.type_declaration) =
    (match td.ptype_kind with
    | Ptype_record fields ->
      List.iter
        (fun (f : Parsetree.label_declaration) ->
          if f.pld_name.txt = "compare" then found := true)
        fields
    | _ -> ());
    Ast_iterator.default_iterator.type_declaration it td
  in
  let it = { Ast_iterator.default_iterator with pat; type_declaration } in
  it.structure it ast;
  !found

(* Operands whose equality is structurally shallow and obviously
   intended: constants, constructors (possibly over atoms), idents and
   field reads.  [x = None], [frame.pins = 0] stay legal; comparing two
   computed values does not. *)
let rec atomic (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_ident _ -> true
  | Pexp_field _ -> true
  | Pexp_construct (_, None) -> true
  | Pexp_construct (_, Some a) -> atomic a
  | Pexp_variant (_, None) -> true
  | Pexp_variant (_, Some a) -> atomic a
  | Pexp_tuple parts -> List.for_all atomic parts
  | Pexp_constraint (a, _) -> atomic a
  | _ -> false

let check_l3 ~emit ~path ast =
  if in_l3_scope path then begin
    let local_compare = binds_compare ast in
    let expr it (e : Parsetree.expression) =
      (match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident "compare"; _ } when not local_compare ->
        emit "L3" e.pexp_loc
          "polymorphic compare on storage data — use String.compare/Int.compare or \
           a typed comparator"
      | Pexp_ident { txt = Longident.Ldot (m, ("compare" | "hash")); _ }
        when module_last m = "Stdlib" || module_last m = "Hashtbl"
             || module_last m = "Pervasives" ->
        emit "L3" e.pexp_loc
          "polymorphic compare/hash on storage data — use a typed comparator"
      | Pexp_apply
          ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ };
              _ },
            [ (_, a); (_, b) ] )
        when (not (atomic a)) && not (atomic b) ->
        emit "L3" e.pexp_loc
          (Printf.sprintf
             "polymorphic %s between computed values — compare fields explicitly" op)
      | Pexp_apply
          ( { pexp_desc =
                Pexp_ident { txt = Longident.Lident (("min" | "max") as op); _ };
              _ },
            (_, a) :: (_, b) :: _ )
        when (not (atomic a)) && not (atomic b) ->
        emit "L3" e.pexp_loc
          (Printf.sprintf
             "polymorphic %s between computed values — use a typed comparator" op)
      | Pexp_apply
          ( { pexp_desc = Pexp_ident { txt = Longident.Ldot (m, "mem"); _ }; _ },
            (_, a) :: _ )
        when module_last m = "List" && not (atomic a) ->
        emit "L3" e.pexp_loc
          "List.mem uses polymorphic equality on storage data — use List.exists with \
           a typed equality (List.memq for token identity)"
      | _ -> ());
      Ast_iterator.default_iterator.expr it e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.structure it ast
  end

(* --- L4: every lib module has an interface -------------------------------- *)

let check_l4 ~emit_at src =
  if String.starts_with ~prefix:"lib/" src.path && not src.mli_exists then
    emit_at "L4" 1 0
      "library module has no .mli — the interface is where invariants are documented"

(* --- L5: Metrics counter names -------------------------------------------- *)

let valid_counter_name s =
  let seg_ok seg =
    seg <> "" && String.for_all (fun c -> (c >= 'a' && c <= 'z') || c = '_') seg
  in
  match String.split_on_char '.' s with
  | [] | [ _ ] -> false
  | segs -> List.for_all seg_ok segs

(* The closed set of counter subsystems.  A registered counter whose
   first segment is not listed here is a finding: either the name is a
   typo, or a new subsystem was added and this grammar must grow with
   it (deliberately, in the same PR). *)
let counter_subsystems =
  [ "btree"; "disk"; "engine"; "ext_sort"; "heap"; "latch"; "planner"; "pool";
    "retry"; "server"; "wal" ]

(* Collect [<...>.Metrics.counter <arg>] call sites: [Some name] for a
   literal first argument, [None] otherwise. *)
let counter_calls ast =
  let calls = ref [] in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Ldot (m, "counter"); _ }; _ },
          (_, arg) :: _ )
      when module_last m = "Metrics" ->
      let name =
        match arg.Parsetree.pexp_desc with
        | Pexp_constant (Pconst_string (s, _, _)) -> Some s
        | _ -> None
      in
      calls := (name, arg.Parsetree.pexp_loc) :: !calls
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it ast;
  List.rev !calls

let check_l5_local ~emit calls =
  List.iter
    (fun (name, loc) ->
      match name with
      | None ->
        emit "L5" loc
          "Metrics.counter name must be a string literal so the registry is static"
      | Some s ->
        if not (valid_counter_name s) then
          emit "L5" loc
            (Printf.sprintf
               "counter name %S must match [a-z_]+(.[a-z_]+)+ — `subsystem.metric`" s)
        else (
          match String.split_on_char '.' s with
          | sub :: _ when not (List.mem sub counter_subsystems) ->
            emit "L5" loc
              (Printf.sprintf
                 "counter %S names unknown subsystem %S — known: %s (extend the \
                  grammar in lint rules.ml when adding a subsystem)"
                 s sub
                 (String.concat ", " counter_subsystems))
          | _ -> ()))
    calls

(* --- L6: no stdout writes in lib/server ----------------------------------- *)

(* Server worker domains share the process; a [print_string] from one
   interleaves with another's and with any client piping the binary.
   Responses travel over the wire, diagnostics over stderr — nothing in
   lib/server may touch stdout. *)

let l6_scope = [ "lib/server/" ]

let in_l6_scope path = List.exists (fun d -> String.starts_with ~prefix:d path) l6_scope

let stdout_idents =
  [ "print_string"; "print_endline"; "print_newline"; "print_char"; "print_int";
    "print_float"; "print_bytes" ]

let check_l6 ~emit ~path ast =
  if in_l6_scope path then begin
    let flag loc what =
      emit "L6" loc
        (Printf.sprintf
           "%s writes stdout from lib/server — use stderr for diagnostics, the wire \
            for responses"
           what)
    in
    let expr it (e : Parsetree.expression) =
      (match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident s; _ } when List.mem s stdout_idents ->
        flag e.pexp_loc s
      | Pexp_ident { txt = Longident.Ldot (m, s); _ }
        when module_last m = "Stdlib" && List.mem s stdout_idents ->
        flag e.pexp_loc ("Stdlib." ^ s)
      | Pexp_ident { txt = Longident.Ldot (m, "printf"); _ }
        when module_last m = "Printf" || module_last m = "Format" ->
        flag e.pexp_loc (module_last m ^ ".printf")
      | Pexp_ident { txt = Longident.Ldot (m, "stdout"); _ }
        when module_last m = "Stdlib" || module_last m = "Format" ->
        flag e.pexp_loc (module_last m ^ ".stdout")
      | _ -> ());
      Ast_iterator.default_iterator.expr it e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.structure it ast
  end

(* --- discipline annotations (L7/L9 vocabulary) ----------------------------- *)

(* Two attributes declare a concurrency discipline the type system can't
   see: [[@@guarded_by lock]] — every access happens with [lock] held —
   and [[@@domain_local]] — the value never crosses a domain boundary.
   Unknown attributes are ignored by the compiler, so they cost nothing
   at build time; L7 treats either as a reviewed, documented claim. *)

let discipline_attrs = [ "guarded_by"; "domain_local" ]

let has_discipline (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> List.mem a.attr_name.txt discipline_attrs)
    attrs

let rec type_head (t : Parsetree.core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) -> Some txt
  | Ptyp_alias (t, _) | Ptyp_poly (_, t) -> type_head t
  | _ -> None

let is_atomic_type t =
  match type_head t with
  | Some (Longident.Ldot (m, "t")) -> module_last m = "Atomic"
  | _ -> false

let is_hashtbl_type t =
  match type_head t with
  | Some (Longident.Ldot (m, "t")) -> module_last m = "Hashtbl"
  | _ -> false

(* --- L7: shared mutable state facts ---------------------------------------- *)

type shared_site = { s_loc : Location.t; s_what : string }

let rec peel_constraint (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> peel_constraint e
  | _ -> e

(* Top-level [let x = ref ...] / [let t = Hashtbl.create ...] /
   [let v = lazy ...] without a discipline attribute on the binding.  A
   lazy value is mutated by whichever domain forces it first, and OCaml 5
   raises [Lazy.Undefined] in a second domain forcing it meanwhile.
   Local refs are fine — they are confined unless captured, and capture
   sites are what L8 bounds. *)
let shared_top_binding (vb : Parsetree.value_binding) =
  if has_discipline vb.pvb_attributes then None
  else
    let name =
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt; _ } -> txt
      | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> txt
      | _ -> "_"
    in
    match (peel_constraint vb.pvb_expr).pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident "ref"; _ }; _ }, _)
      ->
      Some { s_loc = vb.pvb_pat.ppat_loc; s_what = Printf.sprintf "top-level ref `%s`" name }
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = Longident.Ldot (m, "create"); _ }; _ }, _)
      when module_last m = "Hashtbl" ->
      Some
        { s_loc = vb.pvb_pat.ppat_loc;
          s_what = Printf.sprintf "top-level Hashtbl `%s`" name }
    | Pexp_lazy _ ->
      Some { s_loc = vb.pvb_pat.ppat_loc; s_what = Printf.sprintf "top-level lazy `%s`" name }
    | _ -> None

(* Mutable or Hashtbl-typed record fields, unless the field's type
   carries a discipline attribute, the whole type declaration does, or
   the field is an [Atomic.t] (atomics are their own discipline). *)
let shared_fields (td : Parsetree.type_declaration) =
  if has_discipline td.ptype_attributes then []
  else
    match td.ptype_kind with
    | Ptype_record fields ->
      List.filter_map
        (fun (f : Parsetree.label_declaration) ->
          let shared =
            (f.pld_mutable = Mutable || is_hashtbl_type f.pld_type)
            && (not (is_atomic_type f.pld_type))
            && (not (has_discipline f.pld_attributes))
            && not (has_discipline f.pld_type.ptyp_attributes)
          in
          if shared then
            Some
              { s_loc = f.pld_name.loc;
                s_what =
                  Printf.sprintf "%s field `%s` of type `%s`"
                    (if f.pld_mutable = Mutable then "mutable" else "Hashtbl")
                    f.pld_name.txt td.ptype_name.txt }
          else None)
        fields
    | _ -> []

(* --- L8: Domain.spawn sites ------------------------------------------------ *)

(* The one sanctioned site, as a (path, top-level binding) pair: the
   server's fixed worker pool.  Every other spawn is a finding — new
   parallelism must either go through it or be argued into this list
   (or the allowlist) explicitly. *)
let sanctioned_spawns = [("lib/server/server.ml", "serve")]

let spawns_in (e : Parsetree.expression) =
  let sites = ref [] in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt = Longident.Ldot (m, "spawn"); loc }
      when module_last m = "Domain" ->
      sites := loc :: !sites
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  List.rev !sites

(* --- L9: blocking calls under a held latch ---------------------------------- *)

(* Syscalls (and the disk/WAL entry points that wrap them) that can
   block for arbitrarily long.  Anything here executed while a frame
   latch is held stalls every domain queued on that latch. *)
let blocking_calls =
  [ ("Unix", "sleep"); ("Unix", "sleepf"); ("Unix", "select"); ("Unix", "read");
    ("Unix", "write"); ("Unix", "accept"); ("Unix", "connect");
    ("Disk", "read_page"); ("Disk", "write_page"); ("Disk", "alloc");
    ("Wal", "sync"); ("Retry", "run") ]

type l9_event = Acquire | Release | Blocking of string

(* Scan one top-level body in textual order: latch acquisitions open a
   held region, releases close it, and a blocking call inside a region
   is "provably under a latch in the same body".  Purely syntactic — a
   release inside a [~finally] that textually precedes the protected
   body still closes the region, which matches how [Buffer_pool.use]
   brackets its latch. *)
let check_l9 ~emit (body : Parsetree.expression) =
  let events = ref [] in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt = Longident.Ldot (m, f); _ } -> (
      let m = module_last m in
      if m = "Latch" && (f = "acquire_shared" || f = "acquire_exclusive") then
        events := (e.pexp_loc, Acquire) :: !events
      else if m = "Latch" && f = "release" then
        events := (e.pexp_loc, Release) :: !events
      else
        match List.find_opt (fun (bm, bf) -> bm = m && bf = f) blocking_calls with
        | Some _ -> events := (e.pexp_loc, Blocking (m ^ "." ^ f)) :: !events
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it body;
  let ordered =
    List.sort
      (fun ((a : Location.t), _) ((b : Location.t), _) ->
        compare a.loc_start.pos_cnum b.loc_start.pos_cnum)
      !events
  in
  ignore
    (List.fold_left
       (fun held (loc, ev) ->
         match ev with
         | Acquire -> held + 1
         | Release -> if held > 0 then held - 1 else 0
         | Blocking what ->
           if held > 0 then
             emit "L9" loc
               (Printf.sprintf
                  "%s while a latch is held in this body — do the I/O before \
                   acquiring or after releasing the latch"
                  what);
           held)
       0 ordered)

(* --- phase one: per-file facts --------------------------------------------- *)

(* Phase one parses each file once and distills everything the rules
   need: per-file findings (L1-L6, L8, L9), literal counter names (L5
   uniqueness), the modules the file references (the dependency graph),
   its [Domain.spawn] sites (the graph's roots) and its unannotated
   shared mutable state (L7 candidates — judged only in phase two, once
   reachability is known). *)

type facts = {
  f_src : source;
  f_module : string;  (* capitalized module name of this file *)
  f_wrapper : string option;  (* dune wrapper module exposing it, e.g. Xqdb_storage *)
  f_refs : string list;  (* capitalized idents the file mentions *)
  f_spawns : bool;  (* has at least one Domain.spawn (graph root) *)
  f_shared : shared_site list;  (* L7 candidates *)
  f_findings : Finding.t list;  (* per-file findings, oldest first *)
  f_counters : (string * Location.t) list;  (* literal counter registrations *)
}

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let wrapper_of_path path =
  match String.split_on_char '/' path with
  | [ "lib"; dir; _ ] -> Some (String.capitalize_ascii ("xqdb_" ^ dir))
  | _ -> None

let rec lid_segments = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> s :: lid_segments l
  | Longident.Lapply (a, b) -> lid_segments a @ lid_segments b

(* Every capitalized identifier the file mentions, from expressions,
   patterns, types and module expressions.  Over-approximate on purpose:
   a stray extra edge only makes reachability (and so L7) stricter. *)
let collect_refs ast =
  let refs = Hashtbl.create 64 in
  let note lid =
    List.iter
      (fun s ->
        if s <> "" && s.[0] >= 'A' && s.[0] <= 'Z' then Hashtbl.replace refs s ())
      (lid_segments lid)
  in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ }
    | Pexp_construct ({ txt; _ }, _)
    | Pexp_field (_, { txt; _ })
    | Pexp_setfield (_, { txt; _ }, _)
    | Pexp_new { txt; _ } ->
      note txt
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let pat it (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_construct ({ txt; _ }, _) -> note txt
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let typ it (t : Parsetree.core_type) =
    (match t.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) -> note txt
    | _ -> ());
    Ast_iterator.default_iterator.typ it t
  in
  let module_expr it (m : Parsetree.module_expr) =
    (match m.pmod_desc with
    | Pmod_ident { txt; _ } -> note txt
    | _ -> ());
    Ast_iterator.default_iterator.module_expr it m
  in
  let it = { Ast_iterator.default_iterator with expr; pat; typ; module_expr } in
  it.structure it ast;
  Hashtbl.fold (fun k () acc -> k :: acc) refs []

let gather_facts src =
  let findings = ref [] in
  let emit_at rule line col msg =
    findings := Finding.v ~rule ~file:src.path ~line ~col msg :: !findings
  in
  let emit rule loc msg =
    let line, col = line_col loc in
    emit_at rule line col msg
  in
  check_l4 ~emit_at src;
  let refs = ref [] and spawns = ref false and shared = ref [] in
  let counters =
    match parse_implementation src with
    | Error f ->
      findings := f :: !findings;
      []
    | Ok ast ->
      check_l1 ~emit ast;
      check_l2 ~emit ast;
      check_l3 ~emit ~path:src.path ast;
      check_l6 ~emit ~path:src.path ast;
      refs := collect_refs ast;
      (* Top-level walk: binding names scope L8's sanction check and
         L9's per-body scan; type declarations yield L7 candidates. *)
      List.iter
        (fun (item : Parsetree.structure_item) ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                let name =
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt; _ } -> txt
                  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> txt
                  | _ -> "_"
                in
                let sites = spawns_in vb.pvb_expr in
                if sites <> [] then spawns := true;
                List.iter
                  (fun loc ->
                    if not (List.mem (src.path, name) sanctioned_spawns) then
                      emit "L8" loc
                        (Printf.sprintf
                           "Domain.spawn in `%s` — parallelism goes through the \
                            Server worker pool, not ad-hoc domains"
                           name))
                  sites;
                check_l9 ~emit vb.pvb_expr;
                match shared_top_binding vb with
                | Some s -> shared := s :: !shared
                | None -> ())
              vbs
          | Pstr_type (_, tds) ->
            List.iter (fun td -> shared := shared_fields td @ !shared) tds
          | _ -> ())
        ast;
      let calls = counter_calls ast in
      check_l5_local ~emit calls;
      List.filter_map (fun (name, loc) -> Option.map (fun n -> (n, loc)) name) calls
  in
  { f_src = src;
    f_module = module_of_path src.path;
    f_wrapper = wrapper_of_path src.path;
    f_refs = !refs;
    f_spawns = !spawns;
    f_shared = List.rev !shared;
    f_findings = List.rev !findings;
    f_counters = counters }

let check_file src = (gather_facts src).f_findings

(* --- phase two: reachability and project-wide rules ------------------------- *)

(* Paths of the files reachable (by module reference) from any file that
   spawns domains.  Conservative: a reference to a wrapper module
   (Xqdb_storage) pulls in every file of that library, since the source
   of [Xqdb_storage.X.f] could be any of them. *)
let reachable_paths facts =
  let by_name : (string, facts list) Hashtbl.t = Hashtbl.create 64 in
  let index name fa =
    let cur = Option.value ~default:[] (Hashtbl.find_opt by_name name) in
    Hashtbl.replace by_name name (fa :: cur)
  in
  List.iter
    (fun fa ->
      index fa.f_module fa;
      Option.iter (fun w -> index w fa) fa.f_wrapper)
    facts;
  let seen = Hashtbl.create 64 in
  let rec visit fa =
    if not (Hashtbl.mem seen fa.f_src.path) then begin
      Hashtbl.add seen fa.f_src.path ();
      List.iter
        (fun r ->
          List.iter visit (Option.value ~default:[] (Hashtbl.find_opt by_name r)))
        fa.f_refs
    end
  in
  List.iter (fun fa -> if fa.f_spawns then visit fa) facts;
  seen

let check_project srcs =
  let facts = List.map gather_facts srcs in
  let reach = reachable_paths facts in
  let seen = Hashtbl.create 64 in
  let findings =
    List.concat_map
      (fun fa ->
        let src = fa.f_src in
        let dups =
          List.filter_map
            (fun (name, loc) ->
              match Hashtbl.find_opt seen name with
              | Some first ->
                let line, col = line_col loc in
                Some
                  (Finding.v ~rule:"L5" ~file:src.path ~line ~col
                     (Printf.sprintf "duplicate counter name %S (first registered at %s)"
                        name first))
              | None ->
                let line, _ = line_col loc in
                Hashtbl.add seen name (Printf.sprintf "%s:%d" src.path line);
                None)
            fa.f_counters
        in
        let l7 =
          if not (Hashtbl.mem reach src.path) then []
          else
            List.map
              (fun s ->
                let line, col = line_col s.s_loc in
                Finding.v ~rule:"L7" ~file:src.path ~line ~col
                  (Printf.sprintf
                     "%s in a module reachable from Domain.spawn — use Atomic.t, or \
                      declare the discipline with [@@guarded_by <lock>] / \
                      [@@domain_local]"
                     s.s_what))
              fa.f_shared
        in
        fa.f_findings @ dups @ l7)
      facts
  in
  List.sort Finding.compare findings
