(* The Handle slab: struct-of-arrays storage for in-memory object
   representatives, so pinning an object allocates no heap block.  A Handle
   is an index into parallel arrays.  A freshly loaded Handle points
   straight into the buffer-pool page that holds its record: [page], the
   physical [pslot] on it, the first attribute's offset [delta] relative to
   the record span, and the absolute [body] offset cached under the page
   [version] it was derived from.  Attributes decode on demand by
   skip-walking those bytes.  A write to the record re-points the slot
   ([repoint]) at the bytes it wrote, so a resident Handle stays packed and
   coherent with the store.

   Free slots form a stack in [free].  A freed slot's rid is [Rid.nil]
   (every accessor rejects it) and it drops its page, so the GC can
   reclaim an evicted page no live Handle pins. *)

module Rid = Tb_storage.Rid
module Page_layout = Tb_storage.Page_layout

type t = int

type slab = {
  mutable rid : Rid.t array;
  mutable class_id : int array;
  mutable refcount : int array;
  mutable page : Page_layout.t array;
  mutable pslot : int array;
  mutable delta : int array;
  mutable version : int array;
  mutable body : int array;
  mutable free : int array;  (* a stack of free slots *)
  mutable nfree : int;
  no_page : Page_layout.t;  (* what a free slot points at *)
}

let none = -1

let create_slab () =
  let no_page = Page_layout.create ~size:64 in
  {
    rid = [||];
    class_id = [||];
    refcount = [||];
    page = [||];
    pslot = [||];
    delta = [||];
    version = [||];
    body = [||];
    free = [||];
    nfree = 0;
    no_page;
  }

(* Double every array; the new slots join the free stack, lowest on top,
   so slots are handed out in index order. *)
let grow s =
  let n = Array.length s.rid in
  let n' = max 64 (2 * n) in
  let extend a fill =
    let b = Array.make n' fill in
    Array.blit a 0 b 0 n;
    b
  in
  s.rid <- extend s.rid Rid.nil;
  s.class_id <- extend s.class_id 0;
  s.refcount <- extend s.refcount 0;
  s.page <- extend s.page s.no_page;
  s.pslot <- extend s.pslot 0;
  s.delta <- extend s.delta 0;
  s.version <- extend s.version 0;
  s.body <- extend s.body 0;
  let free = Array.make n' 0 in
  Array.blit s.free 0 free 0 s.nfree;
  for i = n' - 1 downto n do
    free.(s.nfree) <- i;
    s.nfree <- s.nfree + 1
  done;
  s.free <- free

let point s h ~class_id ~page ~slot ~delta ~body =
  s.class_id.(h) <- class_id;
  s.page.(h) <- page;
  s.pslot.(h) <- slot;
  s.delta.(h) <- delta;
  s.version.(h) <- Page_layout.version page;
  s.body.(h) <- body

let alloc_packed s ~rid ~class_id ~page ~slot ~delta ~body =
  if Rid.is_nil rid then invalid_arg "Handle.alloc_packed: nil rid";
  if s.nfree = 0 then grow s;
  s.nfree <- s.nfree - 1;
  let h = s.free.(s.nfree) in
  s.rid.(h) <- rid;
  s.refcount.(h) <- 1;
  point s h ~class_id ~page ~slot ~delta ~body;
  h

(* Every accessor goes through here: a freed slot has a nil rid. *)
let live s h =
  if Rid.is_nil s.rid.(h) then invalid_arg "Handle: slot is free";
  h

let free s h =
  let h = live s h in
  s.rid.(h) <- Rid.nil;
  s.page.(h) <- s.no_page;
  s.free.(s.nfree) <- h;
  s.nfree <- s.nfree + 1

let rid s h = s.rid.(live s h)
let class_id s h = s.class_id.(live s h)
let refcount s h = s.refcount.(live s h)
let set_refcount s h n = s.refcount.(live s h) <- n
let repoint s h ~class_id ~page ~slot ~delta ~body =
  point s (live s h) ~class_id ~page ~slot ~delta ~body

(* The page object stays GC-alive (the slot references it) with frozen
   bytes even if evicted from the pool; the only way its contents move is
   in-page compaction, which [record_offset] re-resolves.  A write to the
   record itself re-points the slot at the page it wrote ([repoint])
   before it could be observed here, so the record body at [pslot] is the
   current one whenever this runs. *)
let packed_buf s h =
  let h = live s h in
  let page = s.page.(h) in
  let v = Page_layout.version page in
  if v <> s.version.(h) then begin
    s.body.(h) <- Page_layout.record_offset page s.pslot.(h) + s.delta.(h);
    s.version.(h) <- v
  end;
  Page_layout.buffer page

let packed_body s h = s.body.(live s h)
