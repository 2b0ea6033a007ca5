type t = int

let equal = Int.equal
let hash = Hashtbl.hash
let describe = string_of_int
