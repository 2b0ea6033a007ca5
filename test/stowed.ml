(* Payloads built from and read back into values, for tests that stow or
   inspect join sides without an executor run.  A payload is the layout
   [Operators.stow] writes: the Rid's encoding, then each value's. *)

module Arena = Tb_storage.Arena
module Codec = Tb_store.Codec
module Rid = Tb_storage.Rid

let make arena ~self vals =
  let len =
    Array.fold_left (fun acc v -> acc + Codec.encoded_size v) Rid.on_disk_bytes vals
  in
  let off = Arena.alloc arena len in
  let buf = Arena.buf arena off and pos = Arena.pos off in
  Rid.encode_into self buf ~pos;
  ignore
    (Array.fold_left
       (fun pos v -> Codec.encode_into v buf ~pos)
       (pos + Rid.on_disk_bytes) vals);
  off

let self arena off = Rid.decode (Arena.buf arena off) ~pos:(Arena.pos off)

let values arena off n =
  let buf = Arena.buf arena off in
  let pos = ref (Arena.pos off + Rid.on_disk_bytes) in
  Array.init n (fun _ ->
      let v, next = Codec.decode buf ~pos:!pos in
      pos := next;
      v)
