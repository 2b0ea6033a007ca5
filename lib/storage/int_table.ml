(* Hash tables keyed by an immediate int (a packed Page_id, a file id, a
   page index).  The key is its own hash and compares with Int.equal, so a
   lookup neither calls the runtime's generic hash nor compare_val. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (k : int) = k
end)
