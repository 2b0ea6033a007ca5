(* Chunk record: 8-byte next-chunk Rid (nil at the tail), u16 element count,
   then the encoded elements. Chunks are written tail-first so each knows
   its successor's Rid. *)

let spill_threshold = 4096
let chunk_budget = 3200 (* encoded element bytes per chunk *)

let encode_chunk ~next elems =
  let payload = List.map Codec.encode elems in
  let size =
    List.fold_left (fun acc b -> acc + Bytes.length b) 0 payload
  in
  let b = Bytes.create (Tb_storage.Rid.on_disk_bytes + 2 + size) in
  Bytes.blit (Tb_storage.Rid.encode next) 0 b 0 Tb_storage.Rid.on_disk_bytes;
  Bytes.set_uint16_le b Tb_storage.Rid.on_disk_bytes (List.length elems);
  let pos = ref (Tb_storage.Rid.on_disk_bytes + 2) in
  List.iter
    (fun p ->
      Bytes.blit p 0 b !pos (Bytes.length p);
      pos := !pos + Bytes.length p)
    payload;
  b

let decode_chunk b =
  let next = Tb_storage.Rid.decode b ~pos:0 in
  let n = Bytes.get_uint16_le b Tb_storage.Rid.on_disk_bytes in
  let rec elems pos acc = function
    | 0 -> List.rev acc
    | k ->
        let v, pos = Codec.decode b ~pos in
        elems pos (v :: acc) (k - 1)
  in
  (next, elems (Tb_storage.Rid.on_disk_bytes + 2) [] n)

(* Greedily pack elements into chunks of at most [chunk_budget] encoded
   bytes (at least one element per chunk). *)
let chunks_of elems =
  let rec go current current_bytes acc = function
    | [] ->
        let acc =
          match current with [] -> acc | _ -> List.rev current :: acc
        in
        List.rev acc
    | v :: rest ->
        let sz = Codec.encoded_size v in
        let non_empty = match current with [] -> false | _ -> true in
        if non_empty && current_bytes + sz > chunk_budget then
          go [ v ] sz (List.rev current :: acc) rest
        else go (v :: current) (current_bytes + sz) acc rest
  in
  go [] 0 [] elems

let create heap elems =
  match chunks_of elems with
  | [] -> Tb_storage.Heap_file.insert heap (encode_chunk ~next:Tb_storage.Rid.nil [])
  | chunks ->
      let rec write_tail_first = function
        | [] -> Tb_storage.Rid.nil
        | chunk :: rest ->
            let next = write_tail_first rest in
            Tb_storage.Heap_file.insert heap (encode_chunk ~next chunk)
      in
      write_tail_first chunks

let iter heap head f =
  let rec go rid =
    if not (Tb_storage.Rid.is_nil rid) then begin
      let next, elems = decode_chunk (Tb_storage.Heap_file.read heap rid) in
      List.iter f elems;
      go next
    end
  in
  go head

(* A chunk read where it lies: its references, then its successor. *)
let iter_chunk_refs buf ~pos f =
  let count = pos + Tb_storage.Rid.on_disk_bytes in
  Codec.iter_ref_elems buf ~pos:(count + 2) (Bytes.get_uint16_le buf count) f;
  Tb_storage.Rid.decode buf ~pos

let length heap head =
  let n = ref 0 in
  iter heap head (fun _ -> incr n);
  !n

let to_list heap head =
  let acc = ref [] in
  iter heap head (fun v -> acc := v :: !acc);
  List.rev !acc
