(** Hash tables over immediate int keys: identity hash, [Int.equal].  The
    WAL keys its touched pages by packed page id (coerced with [:> int]);
    only the operations it uses are exported. *)

type 'a t

val create : int -> 'a t
val length : 'a t -> int
val find_opt : 'a t -> int -> 'a option
val replace : 'a t -> int -> 'a -> unit
val reset : 'a t -> unit
