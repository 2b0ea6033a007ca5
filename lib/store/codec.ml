(* Tags. Integers are 4-byte two's complement (the paper counts 4 bytes per
   integer); references are 8 bytes (Rid encoding); strings and field names
   are u16-length-prefixed. *)

let tag_nil = 0
let tag_int = 1
let tag_real = 2
let tag_bool = 3
let tag_char = 4
let tag_string = 5
let tag_ref = 6
let tag_tuple = 7
let tag_set = 8
let tag_list = 9
let tag_big_set = 10

let rec encoded_size = function
  | Value.Nil -> 1
  | Value.Int _ -> 5
  | Value.Real _ -> 9
  | Value.Bool _ | Value.Char _ -> 2
  | Value.String s -> 3 + String.length s
  | Value.Ref _ | Value.Big_set _ -> 1 + Tb_storage.Rid.on_disk_bytes
  | Value.Tuple fields ->
      List.fold_left
        (fun acc (n, v) -> acc + 2 + String.length n + encoded_size v)
        3 fields
  | Value.Set xs | Value.List xs ->
      List.fold_left (fun acc v -> acc + encoded_size v) 5 xs

let encode v =
  let buf = Bytes.create (encoded_size v) in
  let rec write pos v =
    let tag t =
      Bytes.set_uint8 buf pos t;
      pos + 1
    in
    match v with
    | Value.Nil -> tag tag_nil
    | Value.Int i ->
        let pos = tag tag_int in
        Bytes.set_int32_le buf pos (Int32.of_int i);
        pos + 4
    | Value.Real r ->
        let pos = tag tag_real in
        Bytes.set_int64_le buf pos (Int64.bits_of_float r);
        pos + 8
    | Value.Bool b ->
        let pos = tag tag_bool in
        Bytes.set_uint8 buf pos (if b then 1 else 0);
        pos + 1
    | Value.Char c ->
        let pos = tag tag_char in
        Bytes.set buf pos c;
        pos + 1
    | Value.String s ->
        let pos = tag tag_string in
        Bytes.set_uint16_le buf pos (String.length s);
        Bytes.blit_string s 0 buf (pos + 2) (String.length s);
        pos + 2 + String.length s
    | Value.Ref rid ->
        let pos = tag tag_ref in
        Bytes.blit (Tb_storage.Rid.encode rid) 0 buf pos
          Tb_storage.Rid.on_disk_bytes;
        pos + Tb_storage.Rid.on_disk_bytes
    | Value.Big_set rid ->
        let pos = tag tag_big_set in
        Bytes.blit (Tb_storage.Rid.encode rid) 0 buf pos
          Tb_storage.Rid.on_disk_bytes;
        pos + Tb_storage.Rid.on_disk_bytes
    | Value.Tuple fields ->
        let pos = tag tag_tuple in
        Bytes.set_uint16_le buf pos (List.length fields);
        List.fold_left
          (fun pos (n, v) ->
            Bytes.set_uint16_le buf pos (String.length n);
            Bytes.blit_string n 0 buf (pos + 2) (String.length n);
            write (pos + 2 + String.length n) v)
          (pos + 2) fields
    | Value.Set xs ->
        let pos = tag tag_set in
        Bytes.set_int32_le buf pos (Int32.of_int (List.length xs));
        List.fold_left write (pos + 4) xs
    | Value.List xs ->
        let pos = tag tag_list in
        Bytes.set_int32_le buf pos (Int32.of_int (List.length xs));
        List.fold_left write (pos + 4) xs
  in
  let final = write 0 v in
  assert (final = Bytes.length buf);
  buf

let decode b ~pos =
  let rec read pos =
    if pos >= Bytes.length b then invalid_arg "Codec.decode: truncated";
    let tag = Bytes.get_uint8 b pos in
    let pos = pos + 1 in
    if tag = tag_nil then (Value.Nil, pos)
    else if tag = tag_int then
      (Value.Int (Int32.to_int (Bytes.get_int32_le b pos)), pos + 4)
    else if tag = tag_real then
      (Value.Real (Int64.float_of_bits (Bytes.get_int64_le b pos)), pos + 8)
    else if tag = tag_bool then (Value.Bool (Bytes.get_uint8 b pos <> 0), pos + 1)
    else if tag = tag_char then (Value.Char (Bytes.get b pos), pos + 1)
    else if tag = tag_string then begin
      let len = Bytes.get_uint16_le b pos in
      (Value.String (Bytes.sub_string b (pos + 2) len), pos + 2 + len)
    end
    else if tag = tag_ref then
      (Value.Ref (Tb_storage.Rid.decode b ~pos), pos + Tb_storage.Rid.on_disk_bytes)
    else if tag = tag_big_set then
      ( Value.Big_set (Tb_storage.Rid.decode b ~pos),
        pos + Tb_storage.Rid.on_disk_bytes )
    else if tag = tag_tuple then begin
      let n = Bytes.get_uint16_le b pos in
      let rec fields pos acc = function
        | 0 -> (Value.Tuple (List.rev acc), pos)
        | k ->
            let len = Bytes.get_uint16_le b pos in
            let name = Bytes.sub_string b (pos + 2) len in
            let v, pos = read (pos + 2 + len) in
            fields pos ((name, v) :: acc) (k - 1)
      in
      fields (pos + 2) [] n
    end
    else if tag = tag_set || tag = tag_list then begin
      let n = Int32.to_int (Bytes.get_int32_le b pos) in
      let rec elems pos acc = function
        | 0 ->
            let xs = List.rev acc in
            ((if tag = tag_set then Value.Set xs else Value.List xs), pos)
        | k ->
            let v, pos = read pos in
            elems pos (v :: acc) (k - 1)
      in
      elems (pos + 4) [] n
    end
    else invalid_arg "Codec.decode: bad tag"
  in
  read pos

(* [decode] without the [(value, pos)] pair: a scalar is built straight
   off the bytes, so an attribute read allocates only its value. *)
let decode_value b ~pos =
  if pos >= Bytes.length b then invalid_arg "Codec.decode: truncated";
  let tag = Bytes.get_uint8 b pos in
  let pos = pos + 1 in
  if tag = tag_nil then Value.Nil
  else if tag = tag_int then Value.Int (Int32.to_int (Bytes.get_int32_le b pos))
  else if tag = tag_real then Value.Real (Int64.float_of_bits (Bytes.get_int64_le b pos))
  else if tag = tag_bool then Value.Bool (Bytes.get_uint8 b pos <> 0)
  else if tag = tag_char then Value.Char (Bytes.get b pos)
  else if tag = tag_string then
    Value.String (Bytes.sub_string b (pos + 2) (Bytes.get_uint16_le b pos))
  else if tag = tag_ref then Value.Ref (Tb_storage.Rid.decode b ~pos)
  else if tag = tag_big_set then Value.Big_set (Tb_storage.Rid.decode b ~pos)
  else fst (decode b ~pos:(pos - 1))

(* Walk over one encoded value without materializing it: the backbone of
   the lazy record view, which only needs the *positions* of a record's
   fields until an attribute is actually read. *)
let rec skip b ~pos =
  if pos >= Bytes.length b then invalid_arg "Codec.skip: truncated";
  let tag = Bytes.get_uint8 b pos in
  let pos = pos + 1 in
  if tag = tag_nil then pos
  else if tag = tag_int then pos + 4
  else if tag = tag_real then pos + 8
  else if tag = tag_bool || tag = tag_char then pos + 1
  else if tag = tag_string then pos + 2 + Bytes.get_uint16_le b pos
  else if tag = tag_ref || tag = tag_big_set then
    pos + Tb_storage.Rid.on_disk_bytes
  else if tag = tag_tuple then begin
    let n = Bytes.get_uint16_le b pos in
    let pos = ref (pos + 2) in
    for _ = 1 to n do
      let len = Bytes.get_uint16_le b !pos in
      pos := skip b ~pos:(!pos + 2 + len)
    done;
    !pos
  end
  else if tag = tag_set || tag = tag_list then begin
    let n = Int32.to_int (Bytes.get_int32_le b pos) in
    let pos = ref (pos + 4) in
    for _ = 1 to n do
      pos := skip b ~pos:!pos
    done;
    !pos
  end
  else invalid_arg "Codec.skip: bad tag"

let decode_exn b =
  let v, final = decode b ~pos:0 in
  if final <> Bytes.length b then invalid_arg "Codec.decode_exn: trailing bytes";
  v
