(* Hash tables keyed by an immediate int (the WAL's packed Page_ids).  The
   key is its own hash and compares with Int.equal, so a lookup neither
   calls the runtime's generic hash nor compare_val. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (k : int) = k
end)
