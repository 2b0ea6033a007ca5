val via_alias : int -> int
val via_open : int -> int

module Nested : sig
  val inner : int -> int
end

val user_only : int -> int
val test_only : int -> int
val own_only : int -> int
