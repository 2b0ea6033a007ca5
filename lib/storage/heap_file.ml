(* On-page record framing: one tag byte then the payload.
   tag 0 = ordinary record: body follows;
   tag 1 = forwarding stub: 8-byte target Rid follows;
   tag 2 = relocated body: 8-byte home Rid, then the body.
   A record relocated by a growing update is thus visible both at its home
   slot (as a stub) and at its new location (as a relocated body that still
   knows its home Rid), so scans can present it under its physical
   identifier of record. Chains never exceed one hop. *)

let tag_normal = '\000'
let tag_forward = '\001'
let tag_relocated = '\002'

type t = {
  stack : Cache_stack.t;
  file : int;
  mutable tail : int; (* page currently receiving inserts; -1 when empty *)
  (* Where the last [locate], insert or [update] found or put a body,
     beside the page it returns: the page index, the physical slot and the
     body's offset.  Per heap, so no module state. *)
  mutable loc_index : int;
  mutable loc_slot : int;
  mutable loc_pos : int;
}

let make stack ~file ~tail =
  { stack; file; tail; loc_index = -1; loc_slot = -1; loc_pos = -1 }

let create stack ~name =
  let file = Disk.new_file (Cache_stack.disk stack) ~name in
  make stack ~file ~tail:(-1)

let create_temp stack =
  let name =
    Printf.sprintf "__temp_%d" (Disk.file_count (Cache_stack.disk stack))
  in
  create stack ~name

let file_id t = t.file
let page_count t = Disk.page_count (Cache_stack.disk t.stack) t.file
let tail t = t.tail

let set_tail t tail =
  if tail < -1 then invalid_arg "Heap_file.set_tail";
  t.tail <- tail

let fill_limit t =
  let cost = (Cache_stack.sim t.stack).Tb_sim.Sim.cost in
  int_of_float
    (float_of_int cost.Tb_sim.Cost_model.page_size
    *. cost.Tb_sim.Cost_model.page_fill)

(* A caller's record buffer leaves [frame_room] bytes in front of the body,
   and the framing is written there in place: a normal record is the tag
   byte just before the body, a relocated one fills the whole room. *)
let frame_room = 1 + Rid.on_disk_bytes

let frame_stub target =
  let b = Bytes.create (1 + Rid.on_disk_bytes) in
  Bytes.set b 0 tag_forward;
  Rid.encode_into target b ~pos:1;
  b

let frame_relocated buf ~home =
  Bytes.set buf 0 tag_relocated;
  Rid.encode_into home buf ~pos:1

let body_of framed =
  match Bytes.get framed 0 with
  | c when c = tag_normal -> Bytes.sub framed 1 (Bytes.length framed - 1)
  | c when c = tag_relocated ->
      let skip = 1 + Rid.on_disk_bytes in
      Bytes.sub framed skip (Bytes.length framed - skip)
  | _ -> invalid_arg "Heap_file: not a body record"

let fresh_page t =
  let index = Disk.append_page (Cache_stack.disk t.stack) ~file:t.file in
  t.tail <- index;
  let pid = Page_id.make ~file:t.file ~index in
  (index, Cache_stack.fetch_for_write t.stack pid)

(* Note where a body landed: [slot] on [page], the body [skip] bytes into
   its record. *)
let placed t page slot ~skip =
  t.loc_slot <- slot;
  t.loc_pos <- Page_layout.record_offset page slot + skip;
  page

(* Insert the framed record [buf.[off .. off + len)] on a fresh tail
   page; returns the page. *)
let insert_fresh t buf ~off ~len =
  let _, page = fresh_page t in
  match Page_layout.insert_sub page buf ~off ~len with
  | Some slot ->
      t.loc_index <- t.tail;
      placed t page slot ~skip:(frame_room - off)
  | None -> failwith "Heap_file.insert: record larger than a page"

(* Insert a framed record, preferring the tail page below the fill
   target; returns the page it went to. *)
let insert_framed t buf ~off ~len =
  if t.tail < 0 then insert_fresh t buf ~off ~len
  else begin
    let page =
      Cache_stack.fetch_for_write t.stack (Page_id.make ~file:t.file ~index:t.tail)
    in
    let used =
      Page_layout.live_bytes page + (4 * Page_layout.slot_count page)
    in
    if used + len + 4 > fill_limit t then insert_fresh t buf ~off ~len
    else
      match Page_layout.insert_sub page buf ~off ~len with
      | Some slot ->
          t.loc_index <- t.tail;
          placed t page slot ~skip:(frame_room - off)
      | None -> insert_fresh t buf ~off ~len
  end

let located_rid t = Rid.make ~file:t.file ~page:t.loc_index ~slot:t.loc_slot

let insert_body t buf ~len =
  Bytes.set buf (frame_room - 1) tag_normal;
  insert_framed t buf ~off:(frame_room - 1) ~len:(len + 1)

let insert t body =
  let len = Bytes.length body in
  let buf = Bytes.create (frame_room + len) in
  Bytes.blit body 0 buf frame_room len;
  ignore (insert_body t buf ~len : Page_layout.t);
  located_rid t

let fetch_slot t (rid : Rid.t) =
  let pid = Page_id.make ~file:(Rid.file rid) ~index:(Rid.page rid) in
  let page = Cache_stack.fetch t.stack pid in
  (page, Page_layout.read page (Rid.slot rid))

let read t rid =
  let _, framed = fetch_slot t rid in
  if Bytes.get framed 0 = tag_forward then
    let target = Rid.decode framed ~pos:1 in
    let _, framed' = fetch_slot t target in
    body_of framed'
  else body_of framed

(* Zero-copy read path: resolve a Rid to the page object holding its body,
   following at most one forwarding hop, and leave the physical slot (it
   differs from [rid.slot] when the record was relocated) and the body's
   offset in the heap's [loc_*] fields, so the per-row path builds no
   tuple.  The charge sequence (one fetch per page touched) is identical to
   [read]; the difference is purely host-side — no Bytes.sub. *)
let locate t (rid : Rid.t) =
  let pid = Page_id.make ~file:(Rid.file rid) ~index:(Rid.page rid) in
  let page = Cache_stack.fetch t.stack pid in
  let off = Page_layout.record_offset page (Rid.slot rid) in
  let buf = Page_layout.buffer page in
  match Bytes.get buf off with
  | c when c = tag_normal ->
      t.loc_slot <- Rid.slot rid;
      t.loc_pos <- off + 1;
      page
  | c when c = tag_forward ->
      let target = Rid.decode buf ~pos:(off + 1) in
      let tpid =
        Page_id.make ~file:(Rid.file target) ~index:(Rid.page target)
      in
      let tpage = Cache_stack.fetch t.stack tpid in
      let toff = Page_layout.record_offset tpage (Rid.slot target) in
      if Bytes.get (Page_layout.buffer tpage) toff <> tag_relocated then
        invalid_arg "Heap_file.locate: stub does not point at a relocated body";
      t.loc_slot <- Rid.slot target;
      t.loc_pos <- toff + 1 + Rid.on_disk_bytes;
      tpage
  | c when c = tag_relocated ->
      t.loc_slot <- Rid.slot rid;
      t.loc_pos <- off + 1 + Rid.on_disk_bytes;
      page
  | _ -> invalid_arg "Heap_file.locate: bad record tag"

let located_slot t = t.loc_slot
let located_pos t = t.loc_pos

let write_for t (rid : Rid.t) =
  let pid = Page_id.make ~file:(Rid.file rid) ~index:(Rid.page rid) in
  Cache_stack.fetch_for_write t.stack pid

(* Relocate the body in [buf] elsewhere and point [home]'s slot at it. *)
let relocate t ~(home : Rid.t) buf ~len =
  frame_relocated buf ~home;
  let page = insert_framed t buf ~off:0 ~len:(frame_room + len) in
  let slot = t.loc_slot and fresh = located_rid t in
  let hpage = write_for t home in
  if not (Page_layout.update hpage (Rid.slot home) (frame_stub fresh)) then
    failwith "Heap_file: cannot write forwarding stub";
  (* The stub may have compacted its page, and that may be this one. *)
  placed t page slot ~skip:frame_room

(* [update] and [delete] read the home slot's tag, and a stub's forwarding
   Rid, in place rather than through a record copy.  The new body is
   framed in [buf]'s room and copied once, into the page. *)
let update t (rid : Rid.t) buf ~len =
  let page = write_for t rid in
  let slot = Rid.slot rid in
  let off = Page_layout.record_offset page slot in
  let pbuf = Page_layout.buffer page in
  match Bytes.get pbuf off with
  | c when c = tag_normal ->
      Bytes.set buf (frame_room - 1) tag_normal;
      if Page_layout.update_sub page slot buf ~off:(frame_room - 1) ~len:(len + 1)
      then placed t page slot ~skip:1
      else relocate t ~home:rid buf ~len
  | c when c = tag_forward ->
      let target = Rid.decode pbuf ~pos:(off + 1) in
      let tpage = write_for t target in
      let tslot = Rid.slot target in
      frame_relocated buf ~home:rid;
      if Page_layout.update_sub tpage tslot buf ~off:0 ~len:(frame_room + len) then
        placed t tpage tslot ~skip:frame_room
      else begin
        Page_layout.delete tpage tslot;
        relocate t ~home:rid buf ~len
      end
  | _ -> invalid_arg "Heap_file.update: rid addresses a relocated body"

let delete t (rid : Rid.t) =
  let page = write_for t rid in
  let off = Page_layout.record_offset page (Rid.slot rid) in
  let buf = Page_layout.buffer page in
  if Bytes.get buf off = tag_forward then begin
    let target = Rid.decode buf ~pos:(off + 1) in
    let tpage = write_for t target in
    Page_layout.delete tpage (Rid.slot target)
  end;
  Page_layout.delete page (Rid.slot rid)

let iter_page_records t ~page:index f =
  let pid = Page_id.make ~file:t.file ~index in
  let page = Cache_stack.fetch t.stack pid in
  Page_layout.iter page (fun slot framed ->
      match Bytes.get framed 0 with
      | c when c = tag_normal ->
          f (Rid.make ~file:t.file ~page:index ~slot) (body_of framed)
      | c when c = tag_relocated -> f (Rid.decode framed ~pos:1) (body_of framed)
      | _ -> () (* stubs: their body is visited at its new location *))

(* Zero-copy page walk: [f rid buf pos len] sees each live body in place
   (same visiting order and Rid presentation as [iter_page_records]). *)
let iter_page_spans t ~page:index f =
  let pid = Page_id.make ~file:t.file ~index in
  let page = Cache_stack.fetch t.stack pid in
  let buf = Page_layout.buffer page in
  Page_layout.iter_spans page (fun slot off len ->
      match Bytes.get buf off with
      | c when c = tag_normal ->
          f (Rid.make ~file:t.file ~page:index ~slot) buf (off + 1) (len - 1)
      | c when c = tag_relocated ->
          let hop = 1 + Rid.on_disk_bytes in
          f (Rid.decode buf ~pos:(off + 1)) buf (off + hop) (len - hop)
      | _ -> ())

let scan t f =
  for index = 0 to page_count t - 1 do
    iter_page_records t ~page:index f
  done

let record_count t =
  let n = ref 0 in
  scan t (fun _ _ -> incr n);
  !n
