(* The analysis engine: loads the .cmt typed ASTs dune already emits, walks
   them once collecting value references, counter mutations and toplevel
   state, and evaluates the six treelint rules.

   Everything works on *typed* trees: a polymorphic [=] is only flagged when
   its instantiated argument type is neither immediate nor one of the types
   the compiler specializes comparisons for, which is what makes the rule
   usable on a codebase with 1,500+ [=] sites (almost all on ints). *)

(* compiler-libs' [Config] is shadowed by the alias below; capture what we
   need from it first. *)
let ocaml_stdlib_dir = Config.standard_library

module Config = Treelint_config
module Diag = Treelint_diag

(* ------------------------------------------------------------------ *)
(* Path normalization                                                  *)
(* ------------------------------------------------------------------ *)

(* "Tb_sim.Sim.charge_rpc"  -> owner library "sim",  name "Sim.charge_rpc"
   "Tb_sim__Sim.charge_rpc" -> same
   "Stdlib.Hashtbl.hash"    -> owner None (stdlib),  name "Hashtbl.hash"
   "Stdlib.="               -> owner None,           name "="
   local idents             -> owner None,           name as-is *)

type ref_info = {
  r_lib : string option;  (* library key from [libraries], None = stdlib/local *)
  r_name : string;        (* normalized qualified name *)
  r_stdlib : bool;
}

let split_wrapper comp =
  (* "Tb_sim__Sim" -> Some ("Tb_sim", "Sim") *)
  match String.index_opt comp '_' with
  | None -> None
  | Some _ -> (
      let n = String.length comp in
      let rec find i =
        if i + 1 >= n then None
        else if comp.[i] = '_' && comp.[i + 1] = '_' then Some i
        else find (i + 1)
      in
      match find 0 with
      | Some i when i > 0 && i + 2 < n ->
          Some (String.sub comp 0 i, String.sub comp (i + 2) (n - i - 2))
      | _ -> None)

let normalize_path ~(config : Config.t) ~aliases path_name =
  let comps = String.split_on_char '.' path_name in
  (* Expand a head that is a local [module M = Other.Path] alias. *)
  let rec expand fuel comps =
    match comps with
    | head :: rest when fuel > 0 -> (
        match List.assoc_opt head aliases with
        | Some target -> expand (fuel - 1) (String.split_on_char '.' target @ rest)
        | None -> comps)
    | _ -> comps
  in
  let comps = expand 4 comps in
  match comps with
  | [] -> { r_lib = None; r_name = path_name; r_stdlib = false }
  | head :: rest -> (
      let from_wrapper wrapper inner =
        match List.assoc_opt wrapper config.libraries with
        | Some lib ->
            Some { r_lib = Some lib; r_name = String.concat "." inner; r_stdlib = false }
        | None -> None
      in
      match split_wrapper head with
      | Some (wrapper, m) when from_wrapper wrapper (m :: rest) <> None ->
          Option.get (from_wrapper wrapper (m :: rest))
      | _ ->
          if String.equal head "Stdlib" && rest <> [] then
            { r_lib = None; r_name = String.concat "." rest; r_stdlib = true }
          else
            match from_wrapper head rest with
            | Some r -> r
            | None -> { r_lib = None; r_name = path_name; r_stdlib = false })

(* ------------------------------------------------------------------ *)
(* Type classification (R3)                                            *)
(* ------------------------------------------------------------------ *)

type tclass =
  | Immediate    (* ints, chars, bools, constant variants, private ints... *)
  | Specialized  (* float/string/bytes/int32/int64/nativeint: the compiler
                    emits a monomorphic comparison *)
  | Boxed of string  (* structural compare/hash at runtime; payload names
                        the offending type's head constructor *)

let specialized_paths =
  [
    Predef.path_float;
    Predef.path_string;
    Predef.path_bytes;
    Predef.path_int32;
    Predef.path_int64;
    Predef.path_nativeint;
  ]

let short_type_name ~config path =
  (normalize_path ~config ~aliases:[] (Path.name path)).r_name

let rec classify_type ~config env ty =
  let ty = try Ctype.expand_head env ty with _ -> ty in
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
      if List.exists (Path.same p) specialized_paths then Specialized
      else
        match Env.find_type p env with
        | decl -> (
            match decl.Types.type_immediate with
            | Type_immediacy.Always | Type_immediacy.Always_on_64bits ->
                Immediate
            | Type_immediacy.Unknown -> Boxed (short_type_name ~config p))
        | exception Not_found ->
            if Path.same p Predef.path_int then Immediate
            else Boxed (short_type_name ~config p))
  | Types.Tvar _ | Types.Tunivar _ -> Boxed "'a"
  | Types.Ttuple _ -> Boxed "tuple"
  | Types.Tarrow _ -> Boxed "fun"
  | Types.Tobject _ -> Boxed "object"
  | Types.Tvariant _ -> Boxed "polyvariant"
  | Types.Tpoly (t, _) -> classify_type ~config env t
  | _ -> Boxed "?"

(* The key type's name as written (before expanding abbreviations), for
   the rules that flag every key type, immediate ones included. *)
let rec key_type_name ~config env ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> short_type_name ~config p
  | Types.Tpoly (t, _) -> key_type_name ~config env t
  | _ -> (
      match classify_type ~config env ty with
      | Boxed name -> name
      | Immediate | Specialized -> "?")

let rec first_arrow_arg ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> Some a
  | Types.Tpoly (t, _) -> first_arrow_arg t
  | _ -> None

(* The key type of the [('k, 'v) Hashtbl.t] somewhere in an op's type. *)
let hashtbl_key_type ty =
  let found = ref None in
  let rec scan depth ty =
    if depth > 12 || !found <> None then ()
    else
      match Types.get_desc ty with
      | Types.Tconstr (p, [ k; _v ], _)
        when String.equal (Path.name p) "Stdlib.Hashtbl.t"
             || String.equal (Path.name p) "Hashtbl.t" ->
          found := Some k
      | Types.Tconstr (_, args, _) -> List.iter (scan (depth + 1)) args
      | Types.Tarrow (_, a, b, _) ->
          scan (depth + 1) a;
          scan (depth + 1) b
      | Types.Tpoly (t, _) -> scan (depth + 1) t
      | _ -> ()
  in
  scan 0 ty;
  !found

(* ------------------------------------------------------------------ *)
(* Occurrence collection                                               *)
(* ------------------------------------------------------------------ *)

type occurrence = {
  o_ref : ref_info;
  o_loc : Location.t;
  o_type : Types.type_expr;  (* instantiated type at the use site *)
  o_env : Env.t;             (* summarized env, reconstructed lazily *)
}

type counter_set = { cs_field : string; cs_loc : Location.t }

type toplevel = {
  t_name : string;
  t_loc : Location.t;
  t_mutable : string option;  (* creator that makes it mutable state *)
  t_refs : string list;       (* same-module toplevel names it references *)
}

type module_facts = {
  m_modname : string;        (* "Exec" *)
  m_lib : string;            (* "query" *)
  m_source : string;
  m_occs : occurrence list;
  m_counter_sets : counter_set list;
  m_toplevels : toplevel list;
  m_ext_constrs : (ref_info * Location.t) list;
      (* extension constructors (exceptions) built or matched, for R6 *)
  m_cfg : Treelint_cfg.mod_cfg;  (* lowered CFGs for the dataflow rules *)
}

let iter_expr_idents f expr =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.Typedtree.exp_desc with
           | Typedtree.Texp_ident (p, _, _) -> f p
           | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it expr

(* Is [expr]'s outermost construction mutable state?  Returns the creator
   name for the diagnostic. *)
let mutable_creator ~(config : Config.t) ~aliases expr =
  match expr.Typedtree.exp_desc with
  | Typedtree.Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
      let r = normalize_path ~config ~aliases (Path.name p) in
      if List.exists (String.equal r.r_name) config.r4_creators then
        Some r.r_name
      else None
  | Typedtree.Texp_record { fields; _ } ->
      if
        Array.exists
          (fun (lbl, _) -> lbl.Types.lbl_mut = Asttypes.Mutable)
          fields
      then Some "mutable record"
      else None
  | Typedtree.Texp_array (_ :: _) -> Some "array literal"
  | _ -> None

let collect_module ~(config : Config.t) ~modname ~lib ~source str =
  let occs = ref [] in
  let counter_sets = ref [] in
  let aliases = ref [] in
  (* Pass 1: local module aliases, in declaration order (later normalization
     sees the full map; fine for a lint — shadowing is not idiomatic here). *)
  let record_alias name mexpr =
    let rec target me =
      match me.Typedtree.mod_desc with
      | Typedtree.Tmod_ident (p, _) -> Some (Path.name p)
      | Typedtree.Tmod_constraint (me, _, _, _) -> target me
      | _ -> None
    in
    match target mexpr with
    | Some t -> aliases := (name, t) :: !aliases
    | None -> ()
  in
  List.iter
    (fun item ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_module { mb_name = { txt = Some name; _ }; mb_expr; _ } ->
          record_alias name mb_expr
      | _ -> ())
    str.Typedtree.str_items;
  let aliases = !aliases in
  (* Pass 2: every value reference and counter mutation; also every
     exception (extension constructor) built or matched, for R6.  The
     constructor's defining path, not the use-site spelling, is what gets
     normalized, so aliases and re-exports can't smuggle one past. *)
  let ext_constrs = ref [] in
  let record_constr (lid : Longident.t Location.loc)
      (cd : Types.constructor_description) =
    match cd.Types.cstr_tag with
    | Types.Cstr_extension (p, _) ->
        ext_constrs :=
          (normalize_path ~config ~aliases (Path.name p), lid.Location.loc)
          :: !ext_constrs
    | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.Typedtree.exp_desc with
           | Typedtree.Texp_ident (p, lid, _) ->
               occs :=
                 {
                   o_ref = normalize_path ~config ~aliases (Path.name p);
                   o_loc = lid.Location.loc;
                   o_type = e.Typedtree.exp_type;
                   o_env = e.Typedtree.exp_env;
                 }
                 :: !occs
           | Typedtree.Texp_setfield (rcd, lid, lbl, _) ->
               let rty =
                 normalize_path ~config ~aliases
                   (match Types.get_desc rcd.Typedtree.exp_type with
                   | Types.Tconstr (p, _, _) -> Path.name p
                   | _ -> "")
               in
               if String.equal rty.r_name "Counters.t" then
                 counter_sets :=
                   { cs_field = lbl.Types.lbl_name; cs_loc = lid.Location.loc }
                   :: !counter_sets
           | Typedtree.Texp_construct (lid, cd, _) -> record_constr lid cd
           | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
      pat =
        (fun (type k) sub (p : k Typedtree.general_pattern) ->
          (match p.Typedtree.pat_desc with
           | Typedtree.Tpat_construct (lid, cd, _, _) -> record_constr lid cd
           | _ -> ());
          Tast_iterator.default_iterator.pat sub p);
      module_expr =
        (fun sub me ->
          (match me.Typedtree.mod_desc with
           | Typedtree.Tmod_ident (p, lid) ->
               occs :=
                 {
                   o_ref = normalize_path ~config ~aliases (Path.name p);
                   o_loc = lid.Location.loc;
                   o_type = Predef.type_unit;  (* module ref: no value type *)
                   o_env = me.Typedtree.mod_env;
                 }
                 :: !occs
           | _ -> ());
          Tast_iterator.default_iterator.module_expr sub me);
    }
  in
  it.structure it str;
  (* Pass 3: toplevel bindings for R4. *)
  let toplevels = ref [] in
  let toplevel_names =
    List.concat_map
      (fun item ->
        match item.Typedtree.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.filter_map
              (fun vb ->
                match vb.Typedtree.vb_pat.Typedtree.pat_desc with
                | Typedtree.Tpat_var (_, { txt; _ }) -> Some txt
                | _ -> None)
              vbs
        | _ -> [])
      str.Typedtree.str_items
  in
  List.iter
    (fun item ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match vb.Typedtree.vb_pat.Typedtree.pat_desc with
              | Typedtree.Tpat_var (_, { txt = name; loc }) ->
                  let refs = ref [] in
                  iter_expr_idents
                    (fun p ->
                      match p with
                      | Path.Pident id ->
                          let n = Ident.name id in
                          if
                            List.exists (String.equal n) toplevel_names
                            && not (String.equal n name)
                          then refs := n :: !refs
                      | _ -> ())
                    vb.Typedtree.vb_expr;
                  toplevels :=
                    {
                      t_name = name;
                      t_loc = loc;
                      t_mutable =
                        mutable_creator ~config ~aliases vb.Typedtree.vb_expr;
                      t_refs = !refs;
                    }
                    :: !toplevels
              | _ -> ())
            vbs
      | _ -> ())
    str.Typedtree.str_items;
  (* Pass 4: lower every function to a CFG for the dataflow rules. *)
  let hooks =
    {
      Treelint_cfg.h_norm =
        (fun p -> (normalize_path ~config ~aliases (Path.name p)).r_name);
      h_field =
        (fun lbl ->
          let head ty =
            match Types.get_desc ty with
            | Types.Tconstr (p, _, _) ->
                Some (normalize_path ~config ~aliases (Path.name p)).r_name
            | _ -> None
          in
          match head lbl.Types.lbl_res with
          | None -> None
          | Some owner_ty ->
              let owner =
                match String.split_on_char '.' owner_ty with
                | m :: _ -> m
                | [] -> owner_ty
              in
              let is_rng =
                match head lbl.Types.lbl_arg with
                | Some n -> String.equal n "Rng.t"
                | None -> false
              in
              Some (owner, is_rng));
    }
  in
  {
    m_modname = modname;
    m_lib = lib;
    m_source = source;
    m_occs = List.rev !occs;
    m_counter_sets = List.rev !counter_sets;
    m_toplevels = List.rev !toplevels;
    m_ext_constrs = List.rev !ext_constrs;
    m_cfg = Treelint_cfg.lower_module ~hooks ~modname str;
  }

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let real_env occ = try Envaux.env_of_only_summary occ.o_env with _ -> occ.o_env

let rank (config : Config.t) lib = List.assoc_opt lib config.layers

(* R1 — charge discipline. *)
let rule_r1 (config : Config.t) m =
  let diags = ref [] in
  let module_allowed allowed = List.exists (String.equal m.m_modname) allowed in
  List.iter
    (fun occ ->
      if Config.matches_member config.r1_page_members occ.o_ref.r_name then
        if not (module_allowed config.r1_page_allowed) then
          diags :=
            Diag.make ~rule:"R1" ~loc:occ.o_loc ~modname:m.m_modname
              ~offender:occ.o_ref.r_name
              ~message:
                (Printf.sprintf
                   "raw page access %s outside the buffer/log layer — page \
                    traffic here would bypass the fetch charges the \
                    fingerprint counts"
                   occ.o_ref.r_name)
              ()
            :: !diags;
      if Config.matches_member config.r1_charge_prefixes occ.o_ref.r_name then
        if not (module_allowed config.r1_charge_allowed) then
          diags :=
            Diag.make ~rule:"R1" ~loc:occ.o_loc ~modname:m.m_modname
              ~offender:occ.o_ref.r_name
              ~message:
                (Printf.sprintf
                   "%s from a module not whitelisted to charge the cost \
                    model — uncoordinated charges corrupt the golden \
                    fingerprint"
                   occ.o_ref.r_name)
              ()
            :: !diags)
    m.m_occs;
  List.iter
    (fun cs ->
      if not (module_allowed config.r1_charge_allowed) then
        diags :=
          Diag.make ~rule:"R1" ~loc:cs.cs_loc ~modname:m.m_modname
            ~offender:(Printf.sprintf "Counters.%s<-" cs.cs_field)
            ~message:
              (Printf.sprintf
                 "direct mutation of counter field %s outside the \
                  whitelisted modules"
                 cs.cs_field)
            ()
          :: !diags)
    m.m_counter_sets;
  !diags

(* R2 — layer boundaries: library DAG plus internal-module table. *)
let rule_r2 (config : Config.t) m =
  let diags = ref [] in
  let my_rank = rank config m.m_lib in
  List.iter
    (fun occ ->
      (match (occ.o_ref.r_lib, my_rank) with
      | Some other_lib, Some my_rank when not (String.equal other_lib m.m_lib)
        -> (
          match rank config other_lib with
          | Some other_rank when other_rank >= my_rank ->
              diags :=
                Diag.make ~rule:"R2" ~loc:occ.o_loc ~modname:m.m_modname
                  ~offender:(other_lib ^ "." ^ occ.o_ref.r_name)
                  ~message:
                    (Printf.sprintf
                       "layer violation: %s (layer %s, rank %d) references \
                        %s from layer %s (rank %d); references must flow \
                        strictly downward"
                       m.m_modname m.m_lib my_rank occ.o_ref.r_name other_lib
                       other_rank)
                  ()
                :: !diags
          | _ -> ())
      | _ -> ());
      (* Internal-module restrictions, at any rank. *)
      match String.split_on_char '.' occ.o_ref.r_name with
      | target_mod :: _ when occ.o_ref.r_lib <> None -> (
          match List.assoc_opt target_mod config.r2_internal with
          | Some allowed when not (String.equal target_mod m.m_modname) ->
              let ok =
                List.exists
                  (fun tok ->
                    String.equal tok m.m_modname
                    || String.equal tok m.m_lib)
                  allowed
              in
              if not ok then
                diags :=
                  Diag.make ~rule:"R2" ~loc:occ.o_loc ~modname:m.m_modname
                    ~offender:occ.o_ref.r_name
                    ~message:
                      (Printf.sprintf
                         "%s is internal to its layer; only [%s] may reach \
                          it, not %s"
                         target_mod
                         (String.concat ", " allowed)
                         m.m_modname)
                    ()
                  :: !diags
          | _ -> ())
      | _ -> ())
    m.m_occs;
  !diags

(* R3 — determinism and specialized comparisons. *)
let rule_r3 (config : Config.t) m =
  if not (List.exists (String.equal m.m_lib) config.r3_layers) then []
  else begin
    let diags = ref [] in
    let add occ offender message =
      diags :=
        Diag.make ~rule:"R3" ~loc:occ.o_loc ~modname:m.m_modname ~offender
          ~message ()
        :: !diags
    in
    List.iter
      (fun occ ->
        let name = occ.o_ref.r_name in
        let stdlib_side = occ.o_ref.r_lib = None in
        if stdlib_side && Config.matches_member config.r3_banned name then
          add occ name
            (Printf.sprintf
               "%s is a nondeterminism source — simulated runs must be \
                exactly reproducible from the seed"
               name)
        else if stdlib_side && occ.o_ref.r_stdlib
                && List.exists (String.equal name) config.r3_poly
        then (
          match first_arrow_arg occ.o_type with
          | Some arg -> (
              match classify_type ~config (real_env occ) arg with
              | Immediate | Specialized -> ()
              | Boxed tyname ->
                  add occ
                    (Printf.sprintf "%s@%s" name tyname)
                    (Printf.sprintf
                       "polymorphic %s on %s: structural comparison walks \
                        the heap at runtime — use the specialized \
                        equal/compare for this type"
                       name tyname))
          | None -> ())
        else if stdlib_side
                && List.exists (String.equal name) config.r3_mem_family
        then (
          match first_arrow_arg occ.o_type with
          | Some arg ->
              let tyname = key_type_name ~config (real_env occ) arg in
              add occ
                (Printf.sprintf "%s@%s" name tyname)
                (Printf.sprintf
                   "%s is compiled once, polymorphically: even %s keys go \
                    through compare_val — walk the list with the key \
                    type's own equal"
                   name tyname)
          | None -> ())
        else if stdlib_side
                && List.exists (String.equal name) config.r3_hashtbl_ops
        then
          match hashtbl_key_type occ.o_type with
          | Some k ->
              let tyname = key_type_name ~config (real_env occ) k in
              add occ
                (Printf.sprintf "%s@%s" name tyname)
                (Printf.sprintf
                   "generic %s hashes %s keys with caml_hash and compares \
                    them with compare_val — use Hashtbl.Make with the key \
                    type's hash/equal"
                   name tyname)
          | None -> ())
      m.m_occs;
    !diags
  end

(* R4 — every toplevel mutable binding must be reachable from a
   reset/clear/restore/checkpoint-style entry point of its module. *)
let r4_is_root (config : Config.t) name =
  let segments = String.split_on_char '_' name in
  List.exists
    (fun root -> List.exists (String.equal root) segments)
    config.r4_roots

let rule_r4 (config : Config.t) m =
  match List.filter (fun t -> t.t_mutable <> None) m.m_toplevels with
  | [] -> []
  | mutables ->
      (* Reachability over the same-module toplevel reference graph. *)
      let reached = Hashtbl.create 16 in
      let rec visit name =
        if not (Hashtbl.mem reached name) then begin
          Hashtbl.add reached name ();
          List.iter
            (fun t ->
              if String.equal t.t_name name then List.iter visit t.t_refs)
            m.m_toplevels
        end
      in
      List.iter
        (fun t -> if r4_is_root config t.t_name then visit t.t_name)
        m.m_toplevels;
      List.filter_map
        (fun t ->
          if Hashtbl.mem reached t.t_name then None
          else
            Some
              (Diag.make ~rule:"R4" ~loc:t.t_loc ~modname:m.m_modname
                 ~offender:t.t_name
                 ~message:
                   (Printf.sprintf
                      "toplevel mutable state `%s` (%s) is not reachable \
                       from any %s function of %s — a forgotten global \
                       breaks run-to-run counter invariance and crash \
                       recovery"
                      t.t_name
                      (Option.value t.t_mutable ~default:"?")
                      (String.concat "/" config.r4_roots)
                      m.m_modname)
                 ()))
        mutables

(* R5 — unsafe operations. *)
let rule_r5 (config : Config.t) m =
  if List.exists (String.equal m.m_modname) config.r5_allowed then []
  else
    List.filter_map
      (fun occ ->
        if
          occ.o_ref.r_lib = None
          && Config.matches_member config.r5_banned occ.o_ref.r_name
        then
          Some
            (Diag.make ~rule:"R5" ~loc:occ.o_loc ~modname:m.m_modname
               ~offender:occ.o_ref.r_name
               ~message:
                 (Printf.sprintf
                    "%s outside the codec/page layer — unchecked access \
                     can silently corrupt page images"
                    occ.o_ref.r_name)
               ())
        else None)
      m.m_occs

(* R6 — shard-failure exceptions are the failover protocol's private
   signalling: only the listed modules may construct or match them.  A
   stray [try ... with Fault.Shard_down _] elsewhere would swallow a crash
   the executor is supposed to turn into a failover (wrong results, no
   failover frame); a stray raise would fake one. *)
let rule_r6 (config : Config.t) m =
  if List.exists (String.equal m.m_modname) config.r6_allowed then []
  else
    List.filter_map
      (fun ((r : ref_info), loc) ->
        if Config.matches_member config.r6_exceptions r.r_name then
          Some
            (Diag.make ~rule:"R6" ~loc ~modname:m.m_modname
               ~offender:r.r_name
               ~message:
                 (Printf.sprintf
                    "%s raised or matched outside the failover protocol \
                     (only [%s] may) — handling a shard failure elsewhere \
                     bypasses the executor's failover accounting"
                    r.r_name
                    (String.concat ", " config.r6_allowed))
               ())
        else None)
      m.m_ext_constrs

let all_rules = [ rule_r1; rule_r2; rule_r3; rule_r4; rule_r5; rule_r6 ]

(* R7/R8/R9 run in the interprocedural dataflow pass, not per-module *)
let rule_count = List.length all_rules + 3

(* ------------------------------------------------------------------ *)
(* Cmt discovery and driving                                           *)
(* ------------------------------------------------------------------ *)

let rec find_cmts dir acc =
  match Sys.readdir dir with
  | entries ->
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then find_cmts path acc
          else if Filename.check_suffix entry ".cmt" then path :: acc
          else acc)
        acc entries
  | exception Sys_error _ -> acc

(* Module identity from "Tb_query__Exec"; the bare wrapper module
   ("Tb_query", dune's generated alias file) is skipped. *)
let identify ~(config : Config.t) modname =
  match split_wrapper modname with
  | Some (wrapper, m) -> (
      match List.assoc_opt wrapper config.libraries with
      | Some lib -> Some (lib, m)
      | None -> None)
  | None -> (
      match List.assoc_opt modname config.libraries with
      | Some _ -> None (* generated library alias module *)
      | None -> None)

type result = {
  diagnostics : Diag.t list;  (* sorted; statuses set *)
  files_scanned : int;
  violations : int;
  allowlisted : int;
  baselined : int;
}

let load_module ~config path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt -> (
      match identify ~config cmt.Cmt_format.cmt_modname with
      | None -> None
      | Some (lib, modname) -> (
          match cmt.Cmt_format.cmt_annots with
          | Cmt_format.Implementation str ->
              let source =
                Option.value cmt.Cmt_format.cmt_sourcefile ~default:path
              in
              if Filename.check_suffix source ".ml-gen" then None
              else Some (collect_module ~config ~modname ~lib ~source str)
          | _ -> None))

let result_of_diags diagnostics ~files_scanned =
  let count st =
    List.length
      (List.filter (fun d -> Diag.status_string d.Diag.status = st) diagnostics)
  in
  {
    diagnostics;
    files_scanned;
    violations = count "violation";
    allowlisted = count "allowlisted";
    baselined = count "baselined";
  }

let run ~(config : Config.t) ~baseline ~extra_dirs ~dirs () =
  (* Load path: the stdlib plus every directory that holds a scanned cmt
     (their cmis live alongside), so Envaux can rebuild typing envs. *)
  let cmts = List.concat_map (fun d -> find_cmts d []) dirs in
  let cmt_dirs =
    List.sort_uniq String.compare (List.map Filename.dirname cmts)
  in
  Load_path.init ~auto_include:Load_path.no_auto_include
    (ocaml_stdlib_dir :: (cmt_dirs @ extra_dirs));
  Envaux.reset_cache ();
  let modules =
    List.filter_map (load_module ~config) (List.sort String.compare cmts)
  in
  let diagnostics =
    List.concat_map
      (fun m -> List.concat_map (fun rule -> rule config m) all_rules)
      modules
  in
  (* Interprocedural pass: R7/R8/R9 over the lowered CFGs. *)
  let libs = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace libs m.m_modname m.m_lib) modules;
  let flow_diags =
    Treelint_dataflow.run ~config
      ~mods:(List.map (fun m -> m.m_cfg) modules)
      ~mod_lib:(fun modname -> Hashtbl.find_opt libs modname)
  in
  let diagnostics = List.sort Diag.compare (diagnostics @ flow_diags) in
  List.iter
    (fun d ->
      let keys = Diag.allow_keys d in
      match
        List.find_map
          (fun k -> List.assoc_opt k config.allow)
          keys
      with
      | Some reason -> d.Diag.status <- Diag.Allowlisted reason
      | None ->
          if List.exists (String.equal (Diag.fingerprint d)) baseline then
            d.Diag.status <- Diag.Baselined)
    diagnostics;
  result_of_diags diagnostics ~files_scanned:(List.length modules)
