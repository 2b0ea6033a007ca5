(* R10 — exports nobody needs, and the config's stale-name check.

   R10 reads each scanned library module's .cmti and asks, for every
   [val] in it (nested [module X : sig ... end] signatures included),
   whether anything outside the module references it.  References come
   from the typed ASTs of the scanned libraries and of the reference-only
   directories (executables, benchmarks: "user" code) and the test
   directories.  A value only tests reference is a warning (a reference
   implementation earns an allowlist entry, anything else goes with its
   test); a value nothing references is an error.

   The stale-name check holds the config to the same code: an entry that
   names a scanned module must match at least one value that module
   defines, so a renamed or deleted member cannot linger in a member list
   or allowlist key and silently match nothing. *)

module Config = Treelint_config
module Diag = Treelint_diag

type export = {
  x_lib : string;
  x_module : string;  (* "Op" *)
  x_path : string;    (* path inside the module: "Acct.enter" *)
  x_loc : Location.t;
}

(* Every [val] of an interface, with its path inside the module. *)
let rec sig_values prefix (sg : Typedtree.signature) =
  List.concat_map
    (fun item ->
      match item.Typedtree.sig_desc with
      | Typedtree.Tsig_value vd ->
          [ (prefix ^ vd.Typedtree.val_name.txt, vd.Typedtree.val_loc) ]
      | Typedtree.Tsig_module
          {
            md_name = { txt = Some name; _ };
            md_type = { mty_desc = Typedtree.Tmty_signature sg; _ };
            _;
          } ->
          sig_values (prefix ^ name ^ ".") sg
      | _ -> [])
    sg.Typedtree.sig_items

let exports ~lib ~modname sg =
  List.map
    (fun (path, loc) ->
      { x_lib = lib; x_module = modname; x_path = path; x_loc = loc })
    (sig_values "" sg)

(* Every value an implementation defines, exported or not, nested
   structures included: the names the stale-name check accepts. *)
let rec struct_values prefix (str : Typedtree.structure) =
  let rec body me =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_structure str -> Some str
    | Typedtree.Tmod_constraint (me, _, _, _) -> body me
    | _ -> None
  in
  List.concat_map
    (fun item ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
          List.concat_map
            (fun vb ->
              List.map
                (fun id -> prefix ^ Ident.name id)
                (Typedtree.pat_bound_idents vb.Typedtree.vb_pat))
            vbs
      | Typedtree.Tstr_primitive vd -> [ prefix ^ vd.Typedtree.val_name.txt ]
      | Typedtree.Tstr_module { mb_name = { txt = Some name; _ }; mb_expr; _ }
        -> (
          match body mb_expr with
          | Some str -> struct_values (prefix ^ name ^ ".") str
          | None -> [])
      | _ -> [])
    str.Typedtree.str_items

(* A reference from outside the value's own module: [u_name] is the
   normalized "Module.path" of a value (a functor argument's values count
   one by one, as its parameter signature names them), or of a module
   used as a whole (an [include], a packed first-class module), which
   keeps every value under it.  [u_test] marks a test-directory referrer. *)
type use = { u_lib : string; u_name : string; u_test : bool }

let rule_r10 exports ~uses =
  let best = Hashtbl.create 1024 in
  let note u =
    let key = u.u_lib ^ ":" ^ u.u_name in
    match Hashtbl.find_opt best key with
    | Some false -> ()
    | _ -> Hashtbl.replace best key u.u_test
  in
  List.iter note uses;
  (* Some false: user code references it; Some true: only tests do. *)
  let state x =
    let segs = x.x_module :: String.split_on_char '.' x.x_path in
    let rec prefixes acc = function
      | [] -> []
      | s :: rest ->
          let p = if acc = "" then s else acc ^ "." ^ s in
          p :: prefixes p rest
    in
    List.fold_left
      (fun st name ->
        match (st, Hashtbl.find_opt best (x.x_lib ^ ":" ^ name)) with
        | Some false, _ | _, None -> st
        | _, found -> found)
      None (prefixes "" segs)
  in
  List.filter_map
    (fun x ->
      let name = x.x_module ^ "." ^ x.x_path in
      let diag severity message =
        Some
          (Diag.make ~severity ~rule:"R10" ~loc:x.x_loc ~modname:x.x_module
             ~offender:x.x_path ~message ())
      in
      match state x with
      | Some false -> None
      | Some true ->
          diag Diag.Warning
            (Printf.sprintf
               "%s is exported but only tests reference it — delete it with \
                the test that checks it alone, or allowlist it as the \
                reference implementation a test compares against"
               name)
      | None ->
          diag Diag.Error
            (Printf.sprintf
               "%s is exported but nothing outside %s references it — drop \
                it from the interface, and delete it if %s does not use it \
                either"
               name x.x_module x.x_module))
    exports

(* ------------------------------------------------------------------ *)
(* Stale config names                                                  *)
(* ------------------------------------------------------------------ *)

(* [defined modname] lists the value paths a scanned module defines, or
   None when no scanned module has that name.  Returns one message per
   config entry that names a scanned module but matches none of its
   values. *)
let stale_names (config : Config.t) ~defined =
  (* A member pattern "Mod.rest": exact, or a prefix when it ends in [.]
     or [_] (see [Config.matches_member]). *)
  let member_ok pat =
    match String.index_opt pat '.' with
    | None -> true
    | Some i -> (
        let m = String.sub pat 0 i in
        match defined m with
        | None -> true
        | Some values ->
            List.exists
              (fun v -> Config.matches_member [ pat ] (m ^ "." ^ v))
              values)
  in
  let members where pats =
    List.filter_map
      (fun p ->
        if member_ok p then None
        else
          Some
            (Printf.sprintf "stale name %S in %s: no value of the module \
                             matches it" p where))
      pats
  in
  let resources =
    List.concat_map
      (fun rc -> rc.Config.rc_acquire @ rc.Config.rc_release)
      config.r7_resources
  in
  (* "RULE Module [offender]": the module must be scanned; an R4/R10
     offender is a value of that module, any other offender that names a
     scanned module must be one of its members. *)
  let allow_key key =
    match String.split_on_char ' ' key with
    | rule :: m :: rest -> (
        let offender = String.concat " " rest in
        match defined m with
        | None -> Some (Printf.sprintf "stale [allow] key %S: no scanned module %s" key m)
        | Some values ->
            let own = List.mem rule [ "R4"; "R10" ] in
            if offender = "" then None
            else if own && not (List.mem offender values) then
              Some
                (Printf.sprintf "stale [allow] key %S: %s defines no value %s"
                   key m offender)
            else if (not own) && not (member_ok offender) then
              Some
                (Printf.sprintf "stale [allow] key %S: no value matches %s"
                   key offender)
            else None)
    | _ -> Some (Printf.sprintf "malformed [allow] key %S" key)
  in
  members "rules.r1.page_access_members" config.r1_page_members
  @ members "rules.r1.charge_prefixes" config.r1_charge_prefixes
  @ members "rules.r7.total" config.r7_total
  @ members "rules.r7.resources" resources
  @ members "rules.r9.pairs"
      (List.concat_map (fun (a, b) -> [ a; b ]) config.r9_pairs)
  @ List.filter_map (fun (k, _) -> allow_key k) config.allow
