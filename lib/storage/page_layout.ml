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
  (* The bytes changed since the page was last clean, as a bit set of
     fixed-size blocks: bit [i] covers bytes [i lsl block_shift] up to the
     next block (at most 32 blocks, see [block_shift_of]).  Every mutator
     adds to it, and it is emptied when the page goes clean, so a clean
     page and the image it was read from or written to differ nowhere, and
     a dirty one differs only inside these blocks. *)
  mutable blocks : int;
  block_shift : int;
  mutable version : int;
  mutable lsn : int;
  (* [buf] is the disk's durable image itself, not a copy of it: the page
     is clean and every mutator refuses it until the disk detaches it (see
     [Disk.detach]). *)
  mutable shared : bool;
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

(* The smallest power-of-two block, of at least one 8-byte word, that
   splits a page into at most 32 blocks: 128 bytes on a 4K page. *)
let block_shift_of size =
  let rec go s = if (size + (1 lsl s) - 1) lsr s <= 32 then s else go (s + 1) in
  go 3

let make buf =
  let size = Bytes.length buf in
  {
    buf;
    size;
    dirty = false;
    blocks = 0;
    block_shift = block_shift_of size;
    version = next_version ();
    lsn = 0;
    shared = false;
  }

let create ~size =
  if size < 64 || size > 65528 then invalid_arg "Page_layout.create: size";
  let buf = Bytes.make size '\000' in
  Bytes.set_uint16_le buf 2 header_size;
  make buf

(* A working copy of a durable page image.  The LSN and checksum live in the
   disk's per-page descriptor, not in the page bytes: growing the header
   would change every capacity-derived simulated count, and the page_fill
   slack already reserves more space than the two words need. *)
let of_bytes ?(lsn = 0) image =
  let t = make (Bytes.copy image) in
  t.lsn <- lsn;
  t

let of_image ~lsn image =
  let t = make image in
  t.lsn <- lsn;
  t.shared <- true;
  t

(* Full-page physical image, the WAL's after-image unit. *)
let snapshot t = Bytes.copy t.buf

let size t = t.size
let dirty t = t.dirty

(* Every mutator starts here: a write to a shared page would change the
   durable image under the disk's feet. *)
let writable t =
  if t.shared then
    invalid_arg "Page_layout: write to a page that shares its durable image"

let set_dirty t d =
  if d then writable t;
  t.dirty <- d;
  if not d then t.blocks <- 0

let shared t = t.shared
let set_shared t s = t.shared <- s

let retire t =
  t.shared <- true;
  t.version <- next_version ()

let dirty_blocks t = t.blocks
let block_bytes t = 1 lsl t.block_shift

(* Add the blocks overlapping bytes [off, off + len) to the dirty set. *)
let mark t off len =
  if len > 0 then begin
    let lo = off lsr t.block_shift in
    let hi = (off + len - 1) lsr t.block_shift in
    t.blocks <- t.blocks lor (((1 lsl (hi - lo + 1)) - 1) lsl lo)
  end

let version t = t.version
let lsn t = t.lsn
let set_lsn t l = t.lsn <- l
let slot_count t = Bytes.get_uint16_le t.buf 0
let free_off t = Bytes.get_uint16_le t.buf 2

let set_slot_count t n =
  Bytes.set_uint16_le t.buf 0 n;
  mark t 0 2

let set_free_off t off =
  Bytes.set_uint16_le t.buf 2 off;
  mark t 2 2

let dir_pos t slot = t.size - (dir_entry * (slot + 1))
let slot_offset t slot = Bytes.get_uint16_le t.buf (dir_pos t slot)
let slot_length t slot = Bytes.get_uint16_le t.buf (dir_pos t slot + 2)

let set_slot t slot ~off ~len =
  let pos = dir_pos t slot in
  Bytes.set_uint16_le t.buf pos off;
  Bytes.set_uint16_le t.buf (pos + 2) len;
  mark t pos dir_entry

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
        mark t !cursor len;
        set_slot t slot ~off:!cursor ~len
      end;
      cursor := !cursor + len)
    by_offset;
  set_free_off t !cursor;
  t.dirty <- true;
  t.version <- next_version ()

let contiguous_free t = dir_start t - free_off t

let insert_sub t src ~off:src_off ~len =
  writable t;
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
    Bytes.blit src src_off t.buf off len;
    mark t off len;
    set_slot t slot ~off ~len;
    set_free_off t (off + len);
    t.dirty <- true;
    t.version <- next_version ();
    Some slot
  end

let insert t body = insert_sub t body ~off:0 ~len:(Bytes.length body)

let check_slot t slot =
  if slot < 0 || slot >= slot_count t then raise Not_found

let read t slot =
  check_slot t slot;
  let off = slot_offset t slot in
  if off = 0 then raise Not_found;
  Bytes.sub t.buf off (slot_length t slot)

(* Zero-copy access for owners that patch a record's bytes in place (the
   B+-tree's node editing): the backing buffer plus a live record's span.
   A caller that writes through [buffer] must call [record_modified] with
   the range it wrote, so the dirty bit, the dirty blocks and the version
   counter stay truthful. *)
let buffer t = t.buf

let record_offset t slot =
  check_slot t slot;
  let off = slot_offset t slot in
  if off = 0 then raise Not_found;
  off

let record_modified t ~off ~len =
  writable t;
  mark t off len;
  t.dirty <- true;
  t.version <- next_version ()

let delete t slot =
  writable t;
  check_slot t slot;
  if slot_offset t slot <> 0 then begin
    set_slot t slot ~off:0 ~len:0;
    t.dirty <- true;
    t.version <- next_version ()
  end

let update_sub t slot src ~off:src_off ~len =
  writable t;
  check_slot t slot;
  let off = slot_offset t slot in
  if off = 0 then raise Not_found;
  let old_len = slot_length t slot in
  if len <= 0 || len > t.size - header_size - dir_entry then
    invalid_arg "Page_layout.update: body size";
  if len <= old_len then begin
    Bytes.blit src src_off t.buf off len;
    mark t off len;
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
    Bytes.blit src src_off t.buf off len;
    mark t off len;
    set_slot t slot ~off ~len;
    set_free_off t (off + len);
    t.dirty <- true;
    t.version <- next_version ();
    true
  end
  else false

let update t slot body = update_sub t slot body ~off:0 ~len:(Bytes.length body)

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
