(* Layout of a page of [size] bytes:
     bytes 0..1   n_slots (u16)
     bytes 2..3   free_off (u16): first byte of the contiguous free region
     bytes 4..    record bodies, growing upward
     ...
     bytes size-4*n_slots .. size-1   slot directory, growing downward.
   Directory entry for slot i, at [size - 4*(i+1)]: offset u16, length u16.
   offset = 0 marks a dead slot (live offsets are always >= header_size). *)

type t = {
  buf : Bytes.t;
  size : int;
  mutable dirty : bool;
  mutable version : int;
  mutable lsn : int;
}

(* Versions are drawn from one monotonic counter shared by every page
   object, so a version can never repeat across objects: a working copy
   materialized from a durable image after a crash or cold restart can never
   alias a stale decoded view of the object it replaced. *)
let version_counter = ref 0

let next_version () =
  incr version_counter;
  !version_counter

let header_size = 4
let dir_entry = 4

let create ~size =
  if size < 64 || size > 65528 then invalid_arg "Page_layout.create: size";
  let buf = Bytes.make size '\000' in
  Bytes.set_uint16_le buf 2 header_size;
  { buf; size; dirty = false; version = next_version (); lsn = 0 }

(* A working copy of a durable page image.  The LSN and checksum live in the
   disk's per-page descriptor, not in the page bytes: growing the header
   would change every capacity-derived simulated count, and the page_fill
   slack already reserves more space than the two words need. *)
let of_bytes ?(lsn = 0) image =
  {
    buf = Bytes.copy image;
    size = Bytes.length image;
    dirty = false;
    version = next_version ();
    lsn;
  }

(* Full-page physical image, the WAL's before/after unit. *)
let snapshot t = Bytes.copy t.buf

let size t = t.size
let dirty t = t.dirty
let set_dirty t d = t.dirty <- d
let version t = t.version
let lsn t = t.lsn
let set_lsn t l = t.lsn <- l
let slot_count t = Bytes.get_uint16_le t.buf 0
let free_off t = Bytes.get_uint16_le t.buf 2
let set_slot_count t n = Bytes.set_uint16_le t.buf 0 n
let set_free_off t off = Bytes.set_uint16_le t.buf 2 off
let dir_pos t slot = t.size - (dir_entry * (slot + 1))
let slot_offset t slot = Bytes.get_uint16_le t.buf (dir_pos t slot)
let slot_length t slot = Bytes.get_uint16_le t.buf (dir_pos t slot + 2)

let set_slot t slot ~off ~len =
  Bytes.set_uint16_le t.buf (dir_pos t slot) off;
  Bytes.set_uint16_le t.buf (dir_pos t slot + 2) len

let live_count t =
  let n = ref 0 in
  for slot = 0 to slot_count t - 1 do
    if slot_offset t slot <> 0 then incr n
  done;
  !n

let live_bytes t =
  let n = ref 0 in
  for slot = 0 to slot_count t - 1 do
    if slot_offset t slot <> 0 then n := !n + slot_length t slot
  done;
  !n

let dir_start t = t.size - (dir_entry * slot_count t)

(* Free space if we compacted: everything between the live bodies and the
   current directory. *)
let free_bytes t = dir_start t - header_size - live_bytes t

let find_dead_slot t =
  let n = slot_count t in
  let rec go slot =
    if slot >= n then None
    else if slot_offset t slot = 0 then Some slot
    else go (slot + 1)
  in
  go 0

let fits t len =
  if len <= 0 then false
  else
    let need =
      match find_dead_slot t with None -> len + dir_entry | Some _ -> len
    in
    need <= free_bytes t

(* Slide all live bodies down to the front, in (current) offset order, so
   the free region becomes contiguous again. *)
let compact t =
  let n = slot_count t in
  let live = ref [] in
  for slot = 0 to n - 1 do
    let off = slot_offset t slot in
    if off <> 0 then live := (off, slot) :: !live
  done;
  let by_offset = List.sort (fun (a, _) (b, _) -> Int.compare a b) !live in
  let cursor = ref header_size in
  List.iter
    (fun (off, slot) ->
      let len = slot_length t slot in
      if off <> !cursor then begin
        Bytes.blit t.buf off t.buf !cursor len;
        set_slot t slot ~off:!cursor ~len
      end;
      cursor := !cursor + len)
    by_offset;
  set_free_off t !cursor;
  t.dirty <- true;
  t.version <- next_version ()

let contiguous_free t = dir_start t - free_off t

let insert t body =
  let len = Bytes.length body in
  if len <= 0 || len > t.size - header_size - dir_entry then
    invalid_arg "Page_layout.insert: body size";
  if not (fits t len) then None
  else begin
    let slot, new_slot =
      match find_dead_slot t with
      | Some slot -> (slot, false)
      | None -> (slot_count t, true)
    in
    let needed = if new_slot then len + dir_entry else len in
    if contiguous_free t < needed then compact t;
    if new_slot then set_slot_count t (slot + 1);
    let off = free_off t in
    Bytes.blit body 0 t.buf off len;
    set_slot t slot ~off ~len;
    set_free_off t (off + len);
    t.dirty <- true;
    t.version <- next_version ();
    Some slot
  end

let check_slot t slot =
  if slot < 0 || slot >= slot_count t then raise Not_found

let read t slot =
  check_slot t slot;
  let off = slot_offset t slot in
  if off = 0 then raise Not_found;
  Bytes.sub t.buf off (slot_length t slot)

(* Zero-copy access for owners that patch a record's bytes in place (the
   B+-tree's node editing): the backing buffer plus a live record's span.
   A caller that writes through [buffer] must call [record_modified] so the
   dirty bit and the version counter stay truthful. *)
let buffer t = t.buf

let record_offset t slot =
  check_slot t slot;
  let off = slot_offset t slot in
  if off = 0 then raise Not_found;
  off

let record_modified t =
  t.dirty <- true;
  t.version <- next_version ()

let delete t slot =
  check_slot t slot;
  if slot_offset t slot <> 0 then begin
    set_slot t slot ~off:0 ~len:0;
    t.dirty <- true;
    t.version <- next_version ()
  end

let update t slot body =
  check_slot t slot;
  let off = slot_offset t slot in
  if off = 0 then raise Not_found;
  let old_len = slot_length t slot in
  let len = Bytes.length body in
  if len <= 0 || len > t.size - header_size - dir_entry then
    invalid_arg "Page_layout.update: body size";
  if len <= old_len then begin
    Bytes.blit body 0 t.buf off len;
    set_slot t slot ~off ~len;
    t.dirty <- true;
    t.version <- next_version ();
    true
  end
  else if free_bytes t + old_len >= len then begin
    (* Move within the page: free the old body, compact, re-append. *)
    set_slot t slot ~off:0 ~len:0;
    compact t;
    let off = free_off t in
    Bytes.blit body 0 t.buf off len;
    set_slot t slot ~off ~len;
    set_free_off t (off + len);
    t.dirty <- true;
    t.version <- next_version ();
    true
  end
  else false

let iter t f =
  for slot = 0 to slot_count t - 1 do
    if slot_offset t slot <> 0 then f slot (read t slot)
  done

let iter_spans t f =
  for slot = 0 to slot_count t - 1 do
    let off = slot_offset t slot in
    if off <> 0 then f slot off (slot_length t slot)
  done

let check_invariants t =
  let n = slot_count t in
  let fo = free_off t in
  if fo < header_size || fo > dir_start t then
    failwith "page: free_off out of bounds";
  if dir_start t < header_size then failwith "page: directory overflow";
  let spans = ref [] in
  for slot = 0 to n - 1 do
    let off = slot_offset t slot in
    if off <> 0 then begin
      let len = slot_length t slot in
      if off < header_size || off + len > fo then
        failwith "page: record outside data region";
      spans := (off, off + len) :: !spans
    end
  done;
  let sorted =
    List.sort
      (fun ((s1, e1) : int * int) (s2, e2) ->
        match Int.compare s1 s2 with 0 -> Int.compare e1 e2 | c -> c)
      !spans
  in
  let rec overlap : (int * int) list -> unit = function
    | (_, e1) :: ((s2, _) :: _ as rest) ->
        if e1 > s2 then failwith "page: overlapping records";
        overlap rest
    | _ -> ()
  in
  overlap sorted;
  if live_bytes t > fo - header_size then failwith "page: live bytes exceed data region"
