(* R3 fixtures: a nondeterminism source, polymorphic comparison on a boxed
   type, a structural hash, and generic tables/assoc lookups on any key. *)

type boxed = { a : int; b : string }

let roll () = Random.int 6

let same (x : boxed) (y : boxed) = x = y

let structural_hash (x : boxed) = Hashtbl.hash x

let fresh () : (boxed, int) Hashtbl.t = Hashtbl.create 8

(* Generic hash tables and assoc lists are compiled once, polymorphically:
   int and string keys are flagged too. *)
let by_id () : (int, string) Hashtbl.t = Hashtbl.create 8

let lookup (name : string) env : int option = List.assoc_opt name env
