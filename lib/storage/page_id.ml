(* A page identity packed into one immediate int: file id in the high bits,
   page index in the low 40.  Keys hash and compare without boxing — the
   buffer pool used to hash a freshly allocated (file, index) tuple on every
   page touch, which showed up in the --micro profiles. *)

type t = int

let index_bits = 40
let index_mask = (1 lsl index_bits) - 1

let make ~file ~index =
  if file < 0 || index < 0 || index > index_mask then
    invalid_arg "Page_id.make";
  (file lsl index_bits) lor index

let file t = t lsr index_bits
let index t = t land index_mask
let compare = Int.compare
let equal : t -> t -> bool = Int.equal
