type ty =
  | TInt
  | TReal
  | TBool
  | TChar
  | TString
  | TRef of string
  | TSet of ty
  | TList of ty
  | TTuple of (string * ty) list

module String_table = Hashtbl.Make (String)

type cls = { cls_name : string; attrs : (string * ty) list }

(* [attr_names]/[attr_slots] are compiled once per schema: the attribute
   list of each class as a positional array and its inverse.  Hot-path
   attribute resolution (get_att, predicate evaluation, payload harvest) is
   a hash probe or an array load instead of an assoc-list walk. *)
type t = {
  classes : cls array;
  roots : (string * ty) list;
  attr_names : string array array;
  attr_slots : int String_table.t array;
}

let rec check_ty class_names = function
  | TInt | TReal | TBool | TChar | TString -> ()
  | TRef name ->
      if not (List.exists (String.equal name) class_names) then
        invalid_arg ("Schema: reference to unknown class " ^ name)
  | TSet ty | TList ty -> check_ty class_names ty
  | TTuple fields -> List.iter (fun (_, ty) -> check_ty class_names ty) fields

let make ~classes ~roots =
  let names = List.map (fun c -> c.cls_name) classes in
  let rec dup = function
    | [] -> None
    | x :: rest -> if List.exists (String.equal x) rest then Some x else dup rest
  in
  (match dup names with
  | Some n -> invalid_arg ("Schema: duplicate class " ^ n)
  | None -> ());
  List.iter
    (fun c -> List.iter (fun (_, ty) -> check_ty names ty) c.attrs)
    classes;
  List.iter (fun (_, ty) -> check_ty names ty) roots;
  let classes = Array.of_list classes in
  let attr_names =
    Array.map (fun c -> Array.of_list (List.map fst c.attrs)) classes
  in
  let attr_slots =
    Array.map
      (fun names ->
        let tbl = String_table.create (2 * Array.length names) in
        Array.iteri (fun i n -> String_table.replace tbl n i) names;
        tbl)
      attr_names
  in
  { classes; roots; attr_names; attr_slots }

let classes t = Array.to_list t.classes
let roots t = t.roots

let find_class t name =
  match Array.find_opt (fun c -> String.equal c.cls_name name) t.classes with
  | Some c -> c
  | None -> raise Not_found

let class_id t name =
  let rec go i =
    if i >= Array.length t.classes then raise Not_found
    else if String.equal t.classes.(i).cls_name name then i
    else go (i + 1)
  in
  go 0

let class_of_id t id =
  if id < 0 || id >= Array.length t.classes then raise Not_found
  else t.classes.(id)

let attr_count t ~class_id = Array.length t.attr_names.(class_id)
let attr_name t ~class_id slot = t.attr_names.(class_id).(slot)
let attr_slot t ~class_id ~attr = String_table.find t.attr_slots.(class_id) attr

let attr_type t ~cls ~attr =
  Value.assoc attr (find_class t cls).attrs

let rec conforms t ty v =
  match (ty, v) with
  | _, Value.Nil -> true
  | TInt, Value.Int _ -> true
  | TReal, Value.Real _ -> true
  | TBool, Value.Bool _ -> true
  | TChar, Value.Char _ -> true
  | TString, Value.String _ -> true
  | TRef _, Value.Ref _ -> true
  | (TSet _ | TList _), Value.Big_set _ -> true
  | TSet ty, Value.Set xs | TList ty, Value.List xs ->
      List.for_all (conforms t ty) xs
  | TTuple fields, Value.Tuple vs ->
      List.length fields = List.length vs
      && List.for_all2
           (fun (n, ty) (n', v) -> String.equal n n' && conforms t ty v)
           fields vs
  | ( ( TInt | TReal | TBool | TChar | TString | TRef _ | TSet _ | TList _
      | TTuple _ ),
      _ ) ->
      false

let rec pp_ty ppf = function
  | TInt -> Format.pp_print_string ppf "integer"
  | TReal -> Format.pp_print_string ppf "real"
  | TBool -> Format.pp_print_string ppf "boolean"
  | TChar -> Format.pp_print_string ppf "char"
  | TString -> Format.pp_print_string ppf "string"
  | TRef c -> Format.pp_print_string ppf c
  | TSet ty -> Format.fprintf ppf "set(%a)" pp_ty ty
  | TList ty -> Format.fprintf ppf "list(%a)" pp_ty ty
  | TTuple fields ->
      Format.fprintf ppf "tuple(@[%a@])"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           (fun ppf (n, ty) -> Format.fprintf ppf "%s: %a" n pp_ty ty))
        fields
