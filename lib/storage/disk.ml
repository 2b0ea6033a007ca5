(* The durable medium.  Each page is a byte image plus an out-of-band
   descriptor word pair: the LSN of the last persist and a checksum of the
   image as written.  Working [Page_layout.t] objects live only in the
   buffer pools; [load_page] builds one over the image itself (or hands
   back the memoized one, see [durable.obj]), [detach] gives the image a
   copy of its own before the first write, and [persist] copies the
   working page's dirty blocks back and shares the page's bytes as the
   image again.  Keeping the two words outside the page bytes preserves
   the page's record capacity (the golden counter gate pins every
   capacity-derived count); the page_fill slack is what a real layout
   would carve them from. *)

type durable = {
  mutable image : Bytes.t;
  mutable lsn : int;
  mutable checksum : int;
  (* Host-level memo of the last working object built over or persisted
     to [image].  It is valid exactly while it is shared: its buffer IS
     [image], so a clean page costs one buffer, not two.  [detach] hands
     [image] a private copy before the first write (the page keeps its
     buffer, so views into it stay valid) and [persist] shares the page's
     bytes again.  [restore_image] and [persist_torn] never write into a
     shared buffer: they detach the memo first and leave it stale.  A
     dirty or stale memo is dead once the pools are dropped; [load_page]
     takes its buffer back for the image.  So a page buffer only ever
     holds bytes of its own page, and only private copies become spares. *)
  mutable obj : Page_layout.t option;
}

type file = {
  name : string;
  mutable pages : durable array;
  mutable n_pages : int;
}

type t = {
  sim : Tb_sim.Sim.t;
  (* A growable array indexed by file id: [files.(0 .. n_files - 1)] are
     live, the rest is spare capacity.  Every page load looks its file up
     here, so the lookup must not walk a list. *)
  mutable files : file array;
  mutable n_files : int;
  (* Pristine page image and its checksum, computed once: the page size is
     fixed by the cost model, and [append_page] runs on loader hot paths. *)
  mutable empty : (Bytes.t * int) option;
  (* Page-sized buffers no page object and no image holds, a stack in
     [spares.(0 .. n_spares - 1)]: detach copies and the WAL's
     before-images draw from it before they allocate. *)
  spares : Bytes.t array;
  mutable n_spares : int;
}

(* At most this many spare buffers stay alive: a bulk load's thousands of
   detaches do not, while a transaction's detaches and steals, and the
   buffers its commit or abort gives back, cycle without allocating. *)
let max_spares = 64

let create sim =
  {
    sim;
    files = [||];
    n_files = 0;
    empty = None;
    spares = Array.make max_spares Bytes.empty;
    n_spares = 0;
  }

let page_size t = t.sim.Tb_sim.Sim.cost.Tb_sim.Cost_model.page_size

let take_spare t =
  if t.n_spares = 0 then Bytes.create (page_size t)
  else begin
    let n = t.n_spares - 1 in
    let b = t.spares.(n) in
    t.spares.(n) <- Bytes.empty;
    t.n_spares <- n;
    b
  end

let give_spare t b =
  if t.n_spares < max_spares && Bytes.length b = page_size t then begin
    t.spares.(t.n_spares) <- b;
    t.n_spares <- t.n_spares + 1
  end

(* The page checksum: a sum, modulo 2^63, of one term per 8-byte word (and
   one per byte of a final partial word).  Word [i], folded to 63 bits by
   xoring its bit 63 into bit 0, is weighted by the odd multiplier
   [(2i + 1) * mult], so flipping any single bit of the page, bit 63 of a
   word included, moves the sum, and a word's term depends on where it
   sits.  Being a sum, a page's checksum is the sum of its blocks' terms:
   [persist] moves the stored one by the old and new terms of just the
   blocks it copies.  The terms do not depend on each other, so two lanes
   run side by side and a full page costs less than a word-serial hash. *)
let mult = 0x1b873593_cc9e2d51

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] word bytes pos =
  let w = get64u bytes pos in
  let w = if Sys.big_endian then swap64 w else w in
  Int64.to_int w lxor Int64.to_int (Int64.shift_right_logical w 63)

(* Checksum terms of the [len] bytes at [off]; [off] is a multiple of 8
   and [off + len] a multiple of 8 or the end of [bytes]. *)
let checksum_range bytes off len =
  let stop = off + len in
  if off < 0 || off land 7 <> 0 || len < 0 || stop > Bytes.length bytes then
    invalid_arg "Disk.checksum_range";
  let step = 2 * mult in
  let h1 = ref 0 and h2 = ref 0 in
  let k = ref (((off lsr 2) + 1) * mult) in
  let p = ref off in
  while !p + 16 <= stop do
    h1 := !h1 + (word bytes !p * !k);
    h2 := !h2 + (word bytes (!p + 8) * (!k + step));
    k := !k + (2 * step);
    p := !p + 16
  done;
  if !p + 8 <= stop then begin
    h1 := !h1 + (word bytes !p * !k);
    p := !p + 8
  end;
  while !p < stop do
    h1 := !h1 + (Char.code (Bytes.unsafe_get bytes !p) * ((!p lsl 1) + 1) * mult);
    incr p
  done;
  !h1 + !h2

let checksum bytes = checksum_range bytes 0 (Bytes.length bytes)

(* [checksum_range src off len - checksum_range image off len], with terms
   only for the words that differ: a B+-tree leaf's shifted entries mark
   whole runs of blocks that a remove and an insert mostly put back. *)
let checksum_delta image src off len =
  let stop = off + len in
  if off < 0 || off land 7 <> 0 || len < 0
     || stop > Bytes.length image || stop > Bytes.length src
  then invalid_arg "Disk.checksum_delta";
  let step = 2 * mult in
  let h = ref 0 in
  let k = ref (((off lsr 2) + 1) * mult) in
  let p = ref off in
  while !p + 8 <= stop do
    if get64u image !p <> get64u src !p then
      h := !h + ((word src !p - word image !p) * !k);
    k := !k + step;
    p := !p + 8
  done;
  if !p < stop then
    h := !h + checksum_range src !p (stop - !p) - checksum_range image !p (stop - !p);
  !h

let new_file t ~name =
  let id = t.n_files in
  let f = { name; pages = [||]; n_pages = 0 } in
  if id = Array.length t.files then begin
    let grown = Array.make (max 8 (2 * id)) f in
    Array.blit t.files 0 grown 0 id;
    t.files <- grown
  end;
  t.files.(id) <- f;
  t.n_files <- id + 1;
  id

let file_count t = t.n_files

let get_file t id =
  if id < 0 || id >= t.n_files then invalid_arg "Disk: bad file id";
  t.files.(id)

let page_count t id = (get_file t id).n_pages

let empty_template t =
  match t.empty with
  | Some e -> e
  | None ->
      let image = Page_layout.snapshot (Page_layout.create ~size:(page_size t)) in
      let e = (image, checksum image) in
      t.empty <- Some e;
      e

let fresh_durable t =
  let template, checksum = empty_template t in
  { image = Bytes.copy template; lsn = 0; checksum; obj = None }

let durable_of t pid =
  let f = get_file t (Page_id.file pid) in
  let index = Page_id.index pid in
  if index < 0 || index >= f.n_pages then
    invalid_arg "Disk: no such page";
  f.pages.(index)

let append_page t ~file =
  let f = get_file t file in
  if f.n_pages = Array.length f.pages then begin
    let cap = max 8 (2 * Array.length f.pages) in
    let fresh = Array.make cap (fresh_durable t) in
    Array.blit f.pages 0 fresh 0 f.n_pages;
    f.pages <- fresh
  end;
  f.pages.(f.n_pages) <- fresh_durable t;
  f.n_pages <- f.n_pages + 1;
  f.n_pages - 1

let share d =
  let page = Page_layout.of_image ~lsn:d.lsn d.image in
  d.obj <- Some page;
  page

let load_page t pid =
  let d = durable_of t pid in
  match d.obj with
  | Some page when Page_layout.shared page -> page
  | Some dead ->
      (* A dirty or stale memo outside the pools: an abort, a crash or a
         restored image dropped it, and the handles that pointed into it
         went with the pools.  Its buffer takes the image back, and the
         private copy becomes a spare. *)
      let buf = Page_layout.buffer dead in
      Bytes.blit d.image 0 buf 0 (Bytes.length buf);
      give_spare t d.image;
      d.image <- buf;
      Page_layout.retire dead;
      share d
  | None -> share d

(* Give [d.image] a private copy if the memo shares it; the memo keeps its
   buffer, which no longer is the image. *)
let unshare t d =
  match d.obj with
  | Some page when Page_layout.shared page ->
      let copy = take_spare t in
      Bytes.blit d.image 0 copy 0 (Bytes.length copy);
      d.image <- copy;
      Page_layout.set_shared page false
  | Some _ | None -> ()

let detach t pid page =
  if Page_layout.shared page then begin
    let d = durable_of t pid in
    (match d.obj with
    | Some memo when memo == page -> ()
    | Some _ | None -> invalid_arg "Disk.detach: not the page's working object");
    unshare t d
  end

(* Copy only the page's dirty blocks, a run of adjacent ones at a time:
   outside them a working page equals the image it was loaded from or last
   persisted to (see [Page_layout.dirty_blocks]), and that image is this
   one — the memo makes one working object per page current at a time,
   and nothing else writes an image under a live dirty object.  The
   checksum moves by the difference of the copied runs' terms. *)
let copy_dirty_blocks d page src =
  let size = Bytes.length d.image in
  let bb = Page_layout.block_bytes page in
  let blocks = ref (Page_layout.dirty_blocks page) in
  let off = ref 0 in
  while !blocks <> 0 do
    if !blocks land 1 = 0 then begin
      blocks := !blocks lsr 1;
      off := !off + bb
    end
    else begin
      let stop = ref !off in
      while !blocks land 1 = 1 do
        blocks := !blocks lsr 1;
        stop := !stop + bb
      done;
      let len = (if !stop <= size then !stop else size) - !off in
      d.checksum <- d.checksum + checksum_delta d.image src !off len;
      Bytes.blit src !off d.image !off len;
      off := !stop
    end
  done

(* A detached page's dirty blocks go to its private image copy; then the
   page's bytes become the image again and the copy a spare (unless
   another object still shares it, which then goes stale). *)
let persist t pid page =
  let d = durable_of t pid in
  let src = Page_layout.buffer page in
  if src != d.image then begin
    copy_dirty_blocks d page src;
    (match d.obj with
    | Some other when other != page && Page_layout.shared other ->
        Page_layout.set_shared other false
    | Some _ | None -> give_spare t d.image);
    d.image <- src
  end;
  d.lsn <- Page_layout.lsn page;
  Page_layout.set_dirty page false;
  Page_layout.set_shared page true;
  d.obj <- Some page

(* A torn write: the crash interrupted the transfer after the first
   half-page (which, in a layout that kept the descriptor words in the page
   header, is the half carrying the new checksum).  The image ends up half
   new, half old, under the checksum of the complete new image — exactly the
   state [verify] exists to flag. *)
let persist_torn t pid page =
  let d = durable_of t pid in
  unshare t d;
  let half = Bytes.length d.image / 2 in
  let full = Page_layout.buffer page in
  let new_checksum = checksum full in
  Bytes.blit full 0 d.image 0 half;
  d.lsn <- Page_layout.lsn page;
  (* If the surviving old tail equals the new tail, the image IS the new
     page and the checksum matches: the tear is harmless and invisible,
     which is also what a real page checksum would conclude. *)
  d.checksum <- new_checksum

let restore_image t pid image ~lsn =
  let d = durable_of t pid in
  unshare t d;
  Bytes.blit image 0 d.image 0 (Bytes.length d.image);
  d.lsn <- lsn;
  d.checksum <- checksum d.image

let image_equal t pid image = Bytes.equal (durable_of t pid).image image

let copy_image t pid dst =
  let d = durable_of t pid in
  Bytes.blit d.image 0 dst 0 (Bytes.length d.image);
  d.lsn

let verify t =
  let torn = ref [] in
  for file = 0 to t.n_files - 1 do
    let f = t.files.(file) in
    for index = f.n_pages - 1 downto 0 do
      let d = f.pages.(index) in
      if checksum d.image <> d.checksum then
        torn := Page_id.make ~file ~index :: !torn
    done
  done;
  !torn

let truncate_file t ~file ~pages =
  let f = get_file t file in
  if pages < 0 || pages > f.n_pages then invalid_arg "Disk.truncate_file";
  f.n_pages <- pages

let truncate_files t ~keep =
  if keep < 0 || keep > t.n_files then invalid_arg "Disk.truncate_files";
  (* A fresh array, so the dropped files' pages are not kept reachable. *)
  t.files <- Array.sub t.files 0 keep;
  t.n_files <- keep

let memo t pid = (durable_of t pid).obj
let is_image t pid buf = buf == (durable_of t pid).image

type footprint = { image_bytes : int; memo_bytes : int; spare_bytes : int }

let footprint t =
  let images = ref 0 and memos = ref 0 in
  for file = 0 to t.n_files - 1 do
    let f = t.files.(file) in
    for index = 0 to f.n_pages - 1 do
      let d = f.pages.(index) in
      images := !images + Bytes.length d.image;
      match d.obj with
      | Some page when Page_layout.buffer page != d.image ->
          memos := !memos + Bytes.length (Page_layout.buffer page)
      | Some _ | None -> ()
    done
  done;
  {
    image_bytes = !images;
    memo_bytes = !memos;
    spare_bytes = t.n_spares * page_size t;
  }

let page_counts t = Array.init t.n_files (fun i -> t.files.(i).n_pages)

let total_pages t =
  let n = ref 0 in
  for i = 0 to t.n_files - 1 do
    n := !n + t.files.(i).n_pages
  done;
  !n

let fnv_basis = 0x0bf29ce484222325

(* Digest of the durable state: file names, page counts and image bytes.
   LSNs and checksums are excluded — the LSN is advisory and the checksum a
   function of the image — so two states are digest-equal iff a restart
   would materialize identical pages. *)
let durable_digest t =
  let h = ref fnv_basis in
  let mix_byte b = h := (!h lxor b) * 0x100000001b3 in
  let mix_int n =
    for shift = 0 to 7 do
      mix_byte ((n lsr (8 * shift)) land 0xff)
    done
  in
  let mix_bytes s =
    for i = 0 to Bytes.length s - 1 do
      mix_byte (Char.code (Bytes.unsafe_get s i))
    done
  in
  mix_int t.n_files;
  for i = 0 to t.n_files - 1 do
    let f = t.files.(i) in
    String.iter (fun ch -> mix_byte (Char.code ch)) f.name;
    mix_int f.n_pages;
    for index = 0 to f.n_pages - 1 do
      mix_bytes f.pages.(index).image
    done
  done;
  Printf.sprintf "%016x" (!h land max_int)
