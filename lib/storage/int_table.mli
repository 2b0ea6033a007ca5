(** Hash tables over immediate int keys: identity hash, [Int.equal].
    Keyed by packed page ids (coerced with [:> int]), file ids and page
    indices. *)

include Hashtbl.S with type key = int
