type t =
  | Nil
  | Int of int
  | Real of float
  | Bool of bool
  | Char of char
  | String of string
  | Ref of Tb_storage.Rid.t
  | Tuple of (string * t) list
  | Set of t list
  | List of t list
  | Big_set of Tb_storage.Rid.t

(* A top-level walk with String.equal: List.assoc would compare the names
   with the polymorphic compare_val, and a local recursive closure would
   allocate on every row that looks up a field. *)
let rec assoc name = function
  | [] -> raise Not_found
  | (n, x) :: rest -> if String.equal n name then x else assoc name rest

let field v name =
  match v with
  | Tuple fields -> (
      match assoc name fields with
      | x -> x
      | exception Not_found -> invalid_arg ("Value.field: no field " ^ name))
  | _ -> invalid_arg "Value.field: not a tuple"

let set_field v name x =
  match v with
  | Tuple fields ->
      (match assoc name fields with
      | _ -> ()
      | exception Not_found -> invalid_arg ("Value.set_field: no field " ^ name));
      Tuple (List.map (fun (n, old) -> (n, if String.equal n name then x else old)) fields)
  | _ -> invalid_arg "Value.set_field: not a tuple"

let to_int = function Int i -> i | _ -> invalid_arg "Value.to_int"
let to_char = function Char c -> c | _ -> invalid_arg "Value.to_char"
let to_string_exn = function String s -> s | _ -> invalid_arg "Value.to_string_exn"
let to_ref = function Ref r -> r | _ -> invalid_arg "Value.to_ref"

let rec equal a b =
  match (a, b) with
  | Nil, Nil -> true
  | Int x, Int y -> Int.equal x y
  | Real x, Real y -> Float.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Char x, Char y -> Char.equal x y
  | String x, String y -> String.equal x y
  | Ref x, Ref y | Big_set x, Big_set y -> Tb_storage.Rid.equal x y
  | Tuple xs, Tuple ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (nx, vx) (ny, vy) -> String.equal nx ny && equal vx vy)
           xs ys
  | Set xs, Set ys | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | ( ( Nil | Int _ | Real _ | Bool _ | Char _ | String _ | Ref _ | Tuple _
      | Set _ | List _ | Big_set _ ),
      _ ) ->
      false

let rec pp ppf = function
  | Nil -> Format.pp_print_string ppf "nil"
  | Int i -> Format.pp_print_int ppf i
  | Real r -> Format.pp_print_float ppf r
  | Bool b -> Format.pp_print_bool ppf b
  | Char c -> Format.fprintf ppf "%C" c
  | String s -> Format.fprintf ppf "%S" s
  | Ref rid -> Tb_storage.Rid.pp ppf rid
  | Tuple fields ->
      Format.fprintf ppf "[@[%a@]]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           (fun ppf (n, v) -> Format.fprintf ppf "%s: %a" n pp v))
        fields
  | Set xs -> Format.fprintf ppf "set(@[%a@])" pp_list xs
  | List xs -> Format.fprintf ppf "list(@[%a@])" pp_list xs
  | Big_set rid -> Format.fprintf ppf "bigset(%a)" Tb_storage.Rid.pp rid

and pp_list ppf xs =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp ppf xs
