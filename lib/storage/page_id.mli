(** Identity of one page: which file, which page index within it.

    Packed into a single immediate int (file in the high bits, index in the
    low 40), so ids live in registers, compare with one instruction and
    never allocate. *)

type t = private int

val make : file:int -> index:int -> t
val file : t -> int
val index : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool
