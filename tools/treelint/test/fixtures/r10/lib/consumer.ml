module E = Exporter

let aliased = E.via_alias 1

let opened =
  let open Exporter in
  via_open 2

let nested = Exporter.Nested.inner 3

(* A functor argument gives the functor only what its parameter names
   (equal, hash), not Key.describe. *)
module Keyed = Hashtbl.Make (Key)
