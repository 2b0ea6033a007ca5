module Value = Tb_store.Value
module Schema = Tb_store.Schema
module Database = Tb_store.Database

exception Unsupported of string

type attr_pred = { attr : string; cmp : Oql_ast.cmp; const : Value.t }

type access =
  | Seq_scan of { cls : string; preds : attr_pred list }
  | Index_scan of {
      cls : string;
      attr : string;
      lo : int option;
      hi : int option;
      sorted : bool;
      residual : attr_pred list;
    }

type join_algo = NL | NOJOIN | PHJ | CHJ | PHHJ | CHHJ | SMJ

type t =
  | Selection of {
      var : string;
      cls : string;
      access : access;
      select : Oql_ast.expr;
      aggregate : Oql_ast.agg option;
    }
  | Hier_join of {
      algo : join_algo;
      parent_var : string;
      parent_cls : string;
      child_var : string;
      child_cls : string;
      set_attr : string;
      inv_attr : string option;
      parent_access : access;
      child_access : access;
      partitions : int;
      select : Oql_ast.expr;
      aggregate : Oql_ast.agg option;
    }

type bound =
  | B_selection of {
      var : string;
      cls : string;
      preds : attr_pred list;
      select : Oql_ast.expr;
      aggregate : Oql_ast.agg option;
    }
  | B_hier of {
      parent_var : string;
      parent_cls : string;
      child_var : string;
      child_cls : string;
      set_attr : string;
      inv_attr : string option;
      parent_preds : attr_pred list;
      child_preds : attr_pred list;
      select : Oql_ast.expr;
      aggregate : Oql_ast.agg option;
    }

let flip = function
  | Oql_ast.Lt -> Oql_ast.Gt
  | Oql_ast.Le -> Oql_ast.Ge
  | Oql_ast.Gt -> Oql_ast.Lt
  | Oql_ast.Ge -> Oql_ast.Le
  | Oql_ast.Eq -> Oql_ast.Eq
  | Oql_ast.Ne -> Oql_ast.Ne

(* Resolve an extent name through the schema roots: a root of type
   set(ClassName) names the extent of that class. *)
let extent_class schema name =
  match Value.assoc name (Schema.roots schema) with
  | Schema.TSet (Schema.TRef cls) | Schema.TList (Schema.TRef cls) -> cls
  | _ -> raise (Unsupported ("root " ^ name ^ " is not an object extent"))
  | exception Not_found -> raise (Unsupported ("unknown extent " ^ name))

let check_attr schema ~cls ~attr =
  match Schema.attr_type schema ~cls ~attr with
  | _ -> ()
  | exception Not_found ->
      raise (Unsupported (Printf.sprintf "class %s has no attribute %s" cls attr))

(* Normalize one conjunct into (var, attr_pred). *)
let normalize_conjunct vars = function
  | Oql_ast.Cmp (Oql_ast.Path (v, attr), cmp, Oql_ast.Const lit)
    when List.exists (String.equal v) vars ->
      (v, { attr; cmp; const = Oql_ast.literal_to_value lit })
  | Oql_ast.Cmp (Oql_ast.Const lit, cmp, Oql_ast.Path (v, attr))
    when List.exists (String.equal v) vars ->
      (v, { attr; cmp = flip cmp; const = Oql_ast.literal_to_value lit })
  | p ->
      raise
        (Unsupported
           (Format.asprintf "predicate %a is not of the form var.attr CMP const"
              Oql_ast.pp_pred p))

(* Every variable the projection names is in scope, and every attribute it
   reads exists on that variable's class: the executor resolves both to
   registers and slots before the first charge. *)
let check_select schema scope select =
  let cls_of v =
    match List.find_opt (fun (var, _) -> String.equal var v) scope with
    | Some (_, cls) -> cls
    | None -> raise (Unsupported ("unknown variable " ^ v))
  in
  let rec go = function
    | Oql_ast.Const _ -> ()
    | Oql_ast.Var v -> ignore (cls_of v)
    | Oql_ast.Path (v, attr) -> check_attr schema ~cls:(cls_of v) ~attr
    | Oql_ast.Mk_tuple fields -> List.iter (fun (_, e) -> go e) fields
  in
  go select

(* The child class attribute referencing the parent class, if the schema
   declares one (the ODMG inverse traversal path). *)
let infer_inverse schema ~parent_cls ~child_cls =
  let child = Schema.find_class schema child_cls in
  List.find_map
    (fun (attr, ty) ->
      match ty with
      | Schema.TRef c when String.equal c parent_cls -> Some attr
      | _ -> None)
    child.Schema.attrs

(* Binding reads the schema alone, so a query's names can be checked
   before any database exists. *)
let resolve schema (q : Oql_ast.query) =
  let select, aggregate =
    match q.Oql_ast.select with
    | Oql_ast.Rows e -> (e, None)
    | Oql_ast.Aggregate (a, e) -> (e, Some a)
  in
  match q.Oql_ast.from with
  | [ { var; source = Oql_ast.Extent root } ] ->
      let cls = extent_class schema root in
      check_select schema [ (var, cls) ] select;
      let preds =
        List.map (normalize_conjunct [ var ]) (Oql_ast.conjuncts q.Oql_ast.where)
      in
      List.iter
        (fun (v, p) ->
          assert (String.equal v var);
          check_attr schema ~cls ~attr:p.attr)
        preds;
      B_selection { var; cls; preds = List.map snd preds; select; aggregate }
  | [
   { var = parent_var; source = Oql_ast.Extent root };
   { var = child_var; source = Oql_ast.Sub_collection (owner, set_attr) };
  ] ->
      if not (String.equal owner parent_var) then
        raise
          (Unsupported
             (Printf.sprintf "%s ranges over %s.%s but %s is not a prior variable"
                child_var owner set_attr owner));
      let parent_cls = extent_class schema root in
      let child_cls =
        match Schema.attr_type schema ~cls:parent_cls ~attr:set_attr with
        | Schema.TSet (Schema.TRef c) | Schema.TList (Schema.TRef c) -> c
        | _ ->
            raise
              (Unsupported
                 (Printf.sprintf "%s.%s is not a collection of objects"
                    parent_cls set_attr))
        | exception Not_found ->
            raise
              (Unsupported
                 (Printf.sprintf "class %s has no attribute %s" parent_cls
                    set_attr))
      in
      if String.equal parent_var child_var then
        raise (Unsupported ("variable " ^ child_var ^ " is bound twice"));
      let vars = [ parent_var; child_var ] in
      check_select schema [ (parent_var, parent_cls); (child_var, child_cls) ] select;
      let preds =
        List.map (normalize_conjunct vars) (Oql_ast.conjuncts q.Oql_ast.where)
      in
      let parent_preds =
        List.filter_map
          (fun (v, p) -> if String.equal v parent_var then Some p else None)
          preds
      and child_preds =
        List.filter_map
          (fun (v, p) -> if String.equal v child_var then Some p else None)
          preds
      in
      List.iter (fun p -> check_attr schema ~cls:parent_cls ~attr:p.attr) parent_preds;
      List.iter (fun p -> check_attr schema ~cls:child_cls ~attr:p.attr) child_preds;
      B_hier
        {
          parent_var;
          parent_cls;
          child_var;
          child_cls;
          set_attr;
          inv_attr = infer_inverse schema ~parent_cls ~child_cls;
          parent_preds;
          child_preds;
          select;
          aggregate;
        }
  | [] -> raise (Unsupported "empty from clause")
  | _ ->
      raise
        (Unsupported
           "only single-extent queries and extent + sub-collection joins are \
            supported")

let check schema q = ignore (resolve schema q : bound)
let bind db q = resolve (Database.schema db) q

let key_range p =
  match p.const with
  | Value.Int k -> (
      match p.cmp with
      | Oql_ast.Lt -> Some (None, Some k)
      | Oql_ast.Le -> Some (None, Some (k + 1))
      | Oql_ast.Gt -> Some (Some (k + 1), None)
      | Oql_ast.Ge -> Some (Some k, None)
      | Oql_ast.Eq -> Some (Some k, Some (k + 1))
      | Oql_ast.Ne -> None)
  | _ -> None

let needed_attrs var expr =
  let attrs = ref [] in
  let self = ref false in
  let rec go = function
    | Oql_ast.Const _ -> ()
    | Oql_ast.Var v -> if String.equal v var then self := true
    | Oql_ast.Path (v, a) ->
        if String.equal v var && not (List.exists (String.equal a) !attrs) then
          attrs := a :: !attrs
    | Oql_ast.Mk_tuple fields -> List.iter (fun (_, e) -> go e) fields
  in
  go expr;
  (List.rev !attrs, !self)

let algo_name = function
  | NL -> "NL"
  | NOJOIN -> "NOJOIN"
  | PHJ -> "PHJ"
  | CHJ -> "CHJ"
  | PHHJ -> "PHHJ"
  | CHHJ -> "CHHJ"
  | SMJ -> "SMJ"

let pp_access ppf = function
  | Seq_scan { cls; preds } ->
      Format.fprintf ppf "seq_scan(%s)[%d preds]" cls (List.length preds)
  | Index_scan { attr; lo; hi; sorted; residual; _ } ->
      Format.fprintf ppf "index_scan(%s%s)[%s,%s)%s" attr
        (if sorted then ", sorted" else "")
        (match lo with Some k -> string_of_int k | None -> "-inf")
        (match hi with Some k -> string_of_int k | None -> "+inf")
        (match residual with
        | [] -> ""
        | _ -> Printf.sprintf " +%d residual" (List.length residual))

let pp_aggregate ppf = function
  | None -> ()
  | Some a -> Format.fprintf ppf " agg:%s" (Oql_ast.agg_name a)

let pp ppf = function
  | Selection { var; cls; access; aggregate; _ } ->
      Format.fprintf ppf "select %s:%s via %a%a" var cls pp_access access
        pp_aggregate aggregate
  | Hier_join
      {
        algo;
        parent_cls;
        child_cls;
        parent_access;
        child_access;
        partitions;
        aggregate;
        _;
      } ->
      Format.fprintf ppf "%s(%s, %s) parent:%a child:%a%s%a" (algo_name algo)
        parent_cls child_cls pp_access parent_access pp_access child_access
        (match algo with
        | PHHJ | CHHJ -> Printf.sprintf " partitions:%d" partitions
        | NL | NOJOIN | PHJ | CHJ | SMJ -> "")
        pp_aggregate aggregate
