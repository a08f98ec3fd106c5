(* Source lints over the compiler's typed tree.

   The scan reads the [.cmt]/[.cmti] files dune writes and reduces them
   to two lists: the [val]s of every [lib/] interface, and every path
   the code names, each resolved by the compiler.  A value use carries
   the location of the declaration it resolved to (the [val_loc] of
   the referenced value), which for a value of another unit is its
   line in that unit's [.mli] — through dune's library aliases and
   local [module X = Lib.X] aliases alike.  Both rules are pure
   functions of those two lists. *)

type site = { file : string; line : int }
type decl = { site : site; name : string; marked : bool }
type use = { at : site; path : string; target : site option }

(* ------------------------------------------------------------------ *)
(* Rules                                                                *)

let under prefix file =
  String.length file >= String.length prefix
  && String.sub file 0 (String.length prefix) = prefix

let unit_of file = Filename.remove_extension file

(* A production caller: another [lib/] unit, or the CLI, the bench
   rows, the host benchmark or an example.  [test/] never counts. *)
let calls decl (u : use) =
  match u.target with
  | Some t when t = decl.site ->
    let f = u.at.file in
    (under "lib/" f && unit_of f <> unit_of decl.site.file)
    || List.exists
         (fun root -> under root f)
         [ "bin/"; "bench/"; "perfbench/"; "examples/" ]
  | _ -> false

let dead_exports decls uses =
  let used = Hashtbl.create 1024 in
  List.iter
    (fun (u : use) ->
      match u.target with
      | Some t -> Hashtbl.add used t u
      | None -> ())
    uses;
  List.filter
    (fun d ->
      (not d.marked)
      && not (List.exists (calls d) (Hashtbl.find_all used d.site)))
    decls

let forbidden_modules = [ "Atomic"; "Mutex"; "Condition"; "Domain" ]

(* The Stdlib concurrency module a resolved path goes through, if any:
   ["Stdlib.Atomic.make"] and ["Stdlib__Mutex.lock"] do, ["Atomics.get"]
   and ["Lb.Device.domain"] do not. *)
let forbidden_module path =
  let rest =
    match String.split_on_char '.' path with
    | "Stdlib" :: m :: _ -> Some m
    | m :: _ when under "Stdlib__" m ->
      Some (String.sub m 8 (String.length m - 8))
    | _ -> None
  in
  match rest with
  | Some m when List.mem m forbidden_modules -> Some m
  | _ -> None

let concurrency uses =
  List.filter
    (fun (u : use) -> under "lib/" u.at.file && forbidden_module u.path <> None)
    uses

(* ------------------------------------------------------------------ *)
(* Reading the typed tree                                               *)

let marker = "test_only"

let site_of (loc : Location.t) =
  { file = loc.loc_start.pos_fname; line = loc.loc_start.pos_lnum }

(* The [val]s of an interface, nested module signatures included;
   module types declare no export. *)
let rec sig_decls (sg : Typedtree.signature) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd ->
        [
          {
            site = site_of vd.val_val.val_loc;
            name = vd.val_name.txt;
            marked =
              List.exists
                (fun (a : Parsetree.attribute) -> a.attr_name.txt = marker)
                vd.val_attributes;
          };
        ]
      | Tsig_module { md_type; _ } -> mty_decls md_type
      | Tsig_recmodule mds ->
        List.concat_map
          (fun (md : Typedtree.module_declaration) -> mty_decls md.md_type)
          mds
      | _ -> [])
    sg.sig_items

and mty_decls (mty : Typedtree.module_type) =
  match mty.mty_desc with
  | Tmty_signature sg -> sig_decls sg
  | Tmty_functor (_, res) -> mty_decls res
  | _ -> []

(* Compilation unit name -> its signature, for expanding the alias
   paths ([Engine.Rng] -> [Engine__Rng]) of modules passed whole. *)
type units = (string, Types.signature) Hashtbl.t

let rec expand (units : units) (path : Path.t) =
  match path with
  | Pident id -> Hashtbl.find_opt units (Ident.name id)
  | Pdot (p, name) -> (
    match expand units p with
    | None -> None
    | Some sg ->
      List.find_map
        (function
          | Types.Sig_module (id, _, md, _, _) when Ident.name id = name ->
            mty_sig units md.md_type
          | _ -> None)
        sg)
  | _ -> None

and mty_sig units (mty : Types.module_type) =
  match mty with
  | Mty_signature sg -> Some sg
  | Mty_alias p -> expand units p
  | _ -> None

(* Items that occupy a slot of the module's runtime block, in order:
   the positions a structure coercion names. *)
let runtime_items sg =
  List.filter
    (function
      | Types.Sig_value (_, { val_kind = Val_prim _; _ }, _)
      | Sig_type _ | Sig_modtype _ | Sig_class_type _
      | Sig_module (_, Mp_absent, _, _, _) ->
        false
      | Sig_value _ | Sig_typext _ | Sig_module _ | Sig_class _ -> true)
    sg
  |> Array.of_list

(* Every value a module of signature [sg] hands over through coercion
   [cc]: all of them when it passes whole, else the ones the target
   signature selects, through nested modules and aliases. *)
let rec coerced units sg (cc : Typedtree.module_coercion) =
  let all_of sg =
    List.concat_map
      (function
        | Types.Sig_value (_, vd, _) -> [ vd.val_loc ]
        | Sig_module (_, _, md, _, _) -> (
          match mty_sig units md.md_type with
          | Some sg -> coerced units sg Tcoerce_none
          | None -> [])
        | _ -> [])
      sg
  in
  match cc with
  | Tcoerce_none -> all_of sg
  | Tcoerce_structure (fields, _) ->
    let items = runtime_items sg in
    List.concat_map
      (fun (pos, cc) ->
        match (cc : Typedtree.module_coercion) with
        | Tcoerce_alias (_, p, cc) -> (
          match expand units p with
          | Some sg -> coerced units sg cc
          | None -> [])
        | _ when pos < 0 || pos >= Array.length items -> []
        | _ -> (
          match items.(pos) with
          | Sig_value (_, vd, _) -> [ vd.val_loc ]
          | Sig_module (_, _, md, _, _) -> (
            match mty_sig units md.md_type with
            | Some sg -> coerced units sg cc
            | None -> [])
          | _ -> []))
      fields
  | Tcoerce_alias (_, p, cc) -> (
    match expand units p with Some sg -> coerced units sg cc | None -> [])
  | Tcoerce_functor _ | Tcoerce_primitive _ -> []

let structure_uses units ~file (str : Typedtree.structure) =
  let uses = ref [] in
  let add (loc : Location.t) path target =
    uses :=
      { at = { file; line = loc.loc_start.pos_lnum }; path = Path.name path; target }
      :: !uses
  in
  (* a module passed whole to a functor or sealed by a signature: each
     value it hands over counts as used here *)
  let whole (loc : Location.t) (me : Typedtree.module_expr) cc =
    match me.mod_desc with
    | Tmod_ident (p, _) -> (
      match mty_sig units me.mod_type with
      | Some sg ->
        List.iter
          (fun vloc -> add loc p (Some (site_of vloc)))
          (coerced units sg cc)
      | None -> ())
    | _ -> ()
  in
  let super = Tast_iterator.default_iterator in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, vd) -> add e.exp_loc p (Some (site_of vd.val_loc))
    | _ -> ());
    super.expr it e
  in
  let module_expr it (me : Typedtree.module_expr) =
    (match me.mod_desc with
    | Tmod_ident (p, _) -> add me.mod_loc p None
    | Tmod_apply (_, arg, cc) -> whole me.mod_loc arg cc
    | Tmod_constraint (inner, _, _, cc) -> whole me.mod_loc inner cc
    | _ -> ());
    super.module_expr it me
  in
  let typ it (t : Typedtree.core_type) =
    (match t.ctyp_desc with
    | Ttyp_constr (p, _, _) -> add t.ctyp_loc p None
    | _ -> ());
    super.typ it t
  in
  let it = { super with expr; module_expr; typ } in
  it.structure it str;
  !uses

let uses_of_source ~file src =
  Compmisc.init_path ();
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  let str, _, _, _, _ =
    Typemod.type_structure (Compmisc.initial_env ()) (Parse.implementation lexbuf)
  in
  structure_uses (Hashtbl.create 1) ~file str

(* ------------------------------------------------------------------ *)
(* The tree                                                             *)

type scan = { decls : decl list; uses : use list }

let roots = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]

(* Every [.cmt]/[.cmti] under [dir], in name order.  Dune keeps them in
   hidden [.NAME.objs]/[.NAME.eobjs] directories; other hidden and
   build directories are skipped. *)
let rec annots dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then
           if
             (f.[0] = '.' || f.[0] = '_')
             && not
                  (Filename.check_suffix f ".objs"
                  || Filename.check_suffix f ".eobjs")
           then []
           else annots path
         else if Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti"
         then [ path ]
         else [])

(* The build tree holding [root]'s annotations: dune's default context
   when [root] is a source checkout, else [root] itself (a directory
   inside the build tree). *)
let build_dir root =
  let ctx = Filename.concat root (Filename.concat "_build" "default") in
  if Sys.file_exists ctx then ctx else root

let scan ~root =
  let build = build_dir root in
  (* one reading per source: executables sharing modules compile them
     once per stanza *)
  let seen = Hashtbl.create 512 in
  let all =
    List.concat_map
      (fun r ->
        let dir = Filename.concat build r in
        if Sys.file_exists dir && Sys.is_directory dir then annots dir else [])
      roots
    |> List.filter_map (fun path ->
           let cmt = Cmt_format.read_cmt path in
           match cmt.cmt_sourcefile with
           | Some src
             when List.exists (fun r -> under (r ^ "/") src) roots
                  && not (Hashtbl.mem seen src) ->
             Hashtbl.add seen src ();
             Some (src, cmt)
           | _ -> None)
  in
  (* dune's generated alias modules ([lib/engine/engine.ml-gen]) serve
     only to expand paths *)
  let units : units = Hashtbl.create 512 in
  List.iter
    (fun (_, (cmt : Cmt_format.cmt_infos)) ->
      match cmt.cmt_annots with
      | Interface sg -> Hashtbl.replace units cmt.cmt_modname sg.sig_type
      | Implementation str when not (Hashtbl.mem units cmt.cmt_modname) ->
        Hashtbl.replace units cmt.cmt_modname str.str_type
      | _ -> ())
    all;
  let sources =
    List.filter (fun (src, _) -> not (Filename.check_suffix src "-gen")) all
  in
  match
    List.filter
      (fun (src, _) -> under "lib/" src && Filename.check_suffix src ".mli")
      sources
  with
  | [] ->
    Error
      (Printf.sprintf
         "no lib/ interface annotations under %s (run `dune build @check` first)"
         build)
  | mlis ->
    let decls =
      List.concat_map
        (fun (_, (cmt : Cmt_format.cmt_infos)) ->
          match cmt.cmt_annots with Interface sg -> sig_decls sg | _ -> [])
        mlis
    in
    let uses =
      List.concat_map
        (fun (src, (cmt : Cmt_format.cmt_infos)) ->
          match cmt.cmt_annots with
          | Implementation str -> structure_uses units ~file:src str
          | _ -> [])
        sources
    in
    Ok { decls; uses }
