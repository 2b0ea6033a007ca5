(* Encoding: u16 class id; u8 flags (bit 0 = has slots, bit 1 = deleted);
   if slotted: u8 slot count then u16 per slot (0xFFFF = empty). *)

type t = { class_id : int; deleted : bool; slots : int array option }

let default_slot_count = 8
let empty_slot = 0xFFFF

let create ~class_id ~indexed =
  {
    class_id;
    deleted = false;
    slots = (if indexed then Some (Array.make default_slot_count empty_slot) else None);
  }

let class_id t = t.class_id

let indexes t =
  match t.slots with
  | None -> []
  | Some slots ->
      Array.fold_right
        (fun s acc -> if s <> empty_slot then s :: acc else acc)
        slots []

let add_index t idx =
  if idx < 0 || idx >= empty_slot then invalid_arg "Obj_header.add_index: id";
  match t.slots with
  | None ->
      invalid_arg
        "Obj_header.add_index: object created without index slots; reallocate \
         it first"
  | Some slots ->
      if Array.exists (fun s -> s = idx) slots then t
      else begin
        let free = ref (-1) in
        Array.iteri (fun i s -> if s = empty_slot && !free < 0 then free := i) slots;
        let slots =
          if !free >= 0 then begin
            let slots = Array.copy slots in
            slots.(!free) <- idx;
            slots
          end
          else begin
            (* Extend: the header grows, as the O2 documentation allows. *)
            let bigger = Array.make (Array.length slots + default_slot_count) empty_slot in
            Array.blit slots 0 bigger 0 (Array.length slots);
            bigger.(Array.length slots) <- idx;
            bigger
          end
        in
        { t with slots = Some slots }
      end

let remove_index t idx =
  match t.slots with
  | None -> t
  | Some slots ->
      let slots = Array.map (fun s -> if s = idx then empty_slot else s) slots in
      { t with slots = Some slots }

let with_slots t =
  match t.slots with
  | Some _ -> t
  | None -> { t with slots = Some (Array.make default_slot_count empty_slot) }

let set_deleted t deleted = { t with deleted }

let encoded_size t =
  match t.slots with None -> 3 | Some slots -> 4 + (2 * Array.length slots)

let encode t =
  let b = Bytes.create (encoded_size t) in
  Bytes.set_uint16_le b 0 t.class_id;
  let flags =
    (if Option.is_some t.slots then 1 else 0) lor if t.deleted then 2 else 0
  in
  Bytes.set_uint8 b 2 flags;
  (match t.slots with
  | None -> ()
  | Some slots ->
      Bytes.set_uint8 b 3 (Array.length slots);
      Array.iteri (fun i s -> Bytes.set_uint16_le b (4 + (2 * i)) s) slots);
  b

(* Header peeking for the packed read path: pull the class id and the body
   offset out of a raw record without materializing the slots array. *)
let peek_class_id b ~pos = Bytes.get_uint16_le b pos
let peek_deleted b ~pos = Bytes.get_uint8 b (pos + 2) land 2 <> 0

let skip b ~pos =
  if Bytes.get_uint8 b (pos + 2) land 1 = 0 then pos + 3
  else pos + 4 + (2 * Bytes.get_uint8 b (pos + 3))

(* In-place header writes for the byte-level write path: the same
   encodings [encode] produces for [create] and [add_index], written
   straight into a record buffer. *)
let write_fresh b ~pos ~class_id ~slots =
  Bytes.set_uint16_le b pos class_id;
  if slots = 0 then begin
    Bytes.set_uint8 b (pos + 2) 0;
    pos + 3
  end
  else begin
    Bytes.set_uint8 b (pos + 2) 1;
    Bytes.set_uint8 b (pos + 3) slots;
    for i = 0 to slots - 1 do
      Bytes.set_uint16_le b (pos + 4 + (2 * i)) empty_slot
    done;
    pos + 4 + (2 * slots)
  end

(* The first slot at or after [i] of the [n] at [at] holding [want], or
   [n]. *)
let rec find_slot b ~at n want i =
  if i >= n || Bytes.get_uint16_le b (at + (2 * i)) = want then i
  else find_slot b ~at n want (i + 1)

let add_index_at b ~pos idx =
  if idx < 0 || idx >= empty_slot then invalid_arg "Obj_header.add_index_at: id";
  let n = Bytes.get_uint8 b (pos + 3) in
  if find_slot b ~at:(pos + 4) n idx 0 = n then begin
    let free = find_slot b ~at:(pos + 4) n empty_slot 0 in
    if free = n then invalid_arg "Obj_header.add_index_at: no free slot";
    Bytes.set_uint16_le b (pos + 4 + (2 * free)) idx
  end

let copy_adding src ~pos dst ~dpos idx =
  if idx < 0 || idx >= empty_slot then invalid_arg "Obj_header.copy_adding: id";
  let flags = Bytes.get_uint8 src (pos + 2) in
  let n = if flags land 1 = 0 then 0 else Bytes.get_uint8 src (pos + 3) in
  let present = find_slot src ~at:(pos + 4) n idx 0 < n in
  let roomy = present || find_slot src ~at:(pos + 4) n empty_slot 0 < n in
  let n' = if roomy then n else n + default_slot_count in
  Bytes.set_uint16_le dst dpos (Bytes.get_uint16_le src pos);
  Bytes.set_uint8 dst (dpos + 2) (flags lor 1);
  Bytes.set_uint8 dst (dpos + 3) n';
  if n > 0 then Bytes.blit src (pos + 4) dst (dpos + 4) (2 * n);
  for i = n to n' - 1 do
    Bytes.set_uint16_le dst (dpos + 4 + (2 * i)) empty_slot
  done;
  if not present then add_index_at dst ~pos:dpos idx;
  dpos + 4 + (2 * n')

let decode b ~pos =
  let class_id = Bytes.get_uint16_le b pos in
  let flags = Bytes.get_uint8 b (pos + 2) in
  let deleted = flags land 2 <> 0 in
  if flags land 1 = 0 then ({ class_id; deleted; slots = None }, pos + 3)
  else begin
    let n = Bytes.get_uint8 b (pos + 3) in
    let slots = Array.init n (fun i -> Bytes.get_uint16_le b (pos + 4 + (2 * i))) in
    ({ class_id; deleted; slots = Some slots }, pos + 4 + (2 * n))
  end
