(* One node per page, stored as record 0 of the page.

   Leaf encoding:     u8 1 | i32 next_page | u16 n | cap * (i64 key, 8B rid)
   Internal encoding: u8 0 | u16 n | (cap+1) * i32 child | cap * (i64 key, 8B rid)

   Records are capacity-sized (only the first n entries are live), so a node
   keeps one fixed on-page footprint for life: in-place edits can patch the
   record bytes directly instead of re-encoding, and an equal-length
   [Page_layout.update] never relocates the record.  Record sizes are
   invisible to the cost model — all simulated charges are per page touch,
   never per byte.

   Entries and separators are (key, rid) pairs under lexicographic order, so
   the tree never contains equal keys internally; child_i of an internal
   node covers entries e with sep_(i-1) <= e < sep_i.

   Host-side performance (none of this changes a simulated number):
   - nodes are never decoded on the hot paths: descent, the binary searches,
     the leaf walks and the non-splitting insert and remove read keys, Rids
     and child pointers straight out of the page buffer, and in-place edits
     blit only the bytes that move.  There is no decoded-node cache to keep
     coherent with the pages;
   - a leaf split encodes its new right node straight from the full
     leaf's bytes; internal splits and delete-time rebalancing copy the
     nodes they rebuild out as raw runs of encoded entries (a transient
     [node]) and write fresh records — they run once per ~half-node's worth
     of updates, so the simple code wins;
   - [bulk_add] appends a sorted run straight to the rightmost leaf's bytes,
     replaying exactly the client-hit and comparison charges the per-entry
     descent would have emitted. *)

module Rid = Tb_storage.Rid
module Page_layout = Tb_storage.Page_layout

type t = {
  stack : Tb_storage.Cache_stack.t;
  file : int;
  name : string;
  mutable root : int;
  mutable entries : int;
}

let leaf_cap = 200
let internal_cap = 150

(* --- node layout --- *)

let entry_bytes = 16
let leaf_base = 7
let leaf_record_bytes = leaf_base + (entry_bytes * leaf_cap)
let internal_seps_base = 3 + (4 * (internal_cap + 1))
let internal_record_bytes = internal_seps_base + (entry_bytes * internal_cap)

(* Readers over a node record starting at [off] in page buffer [b]. *)
let is_leaf b off = Bytes.get_uint8 b off = 1
let leaf_n b off = Bytes.get_uint16_le b (off + 5)
let leaf_next b off = Int32.to_int (Bytes.get_int32_le b (off + 1))
let internal_n b off = Bytes.get_uint16_le b (off + 1)
let child_pos off i = off + 3 + (4 * i)
let child b off i = Int32.to_int (Bytes.get_int32_le b (child_pos off i))

(* Byte position of leaf entry [i] / separator [i]. *)
let leaf_entry off i = off + leaf_base + (entry_bytes * i)
let sep_entry off i = off + internal_seps_base + (entry_bytes * i)
let key_at b pos = Int64.to_int (Bytes.get_int64_le b pos)
let rid_at b pos = Rid.decode b ~pos:(pos + 8)

let put_entry b pos key rid =
  Bytes.set_int64_le b pos (Int64.of_int key);
  Rid.encode_into rid b ~pos:(pos + 8)

(* Sign of the probe (key, rid) compared with the entry at [pos]. *)
let cmp_probe b pos key rid =
  let k = key_at b pos in
  if key <> k then Int.compare key k else Rid.compare rid (rid_at b pos)

(* --- transient nodes (internal splits, rebalancing, checks) ---

   An internal split or a rebalancing copies the nodes it rebuilds out of
   their pages as raw runs — a leaf's live entries, an internal node's live
   child pointers and separators — still in their on-page encoding.  Runs
   are sliced and spliced with blits and written back whole, so not even
   these paths turn an entry into an OCaml value. *)

let child_bytes = 4

type node =
  | Leaf of { next : int; entries : Bytes.t (* n * entry_bytes *) }
  | Internal of {
      children : Bytes.t; (* (n + 1) * child_bytes *)
      seps : Bytes.t; (* n * entry_bytes *)
    }

(* Runs of [w]-byte items. *)
let count run w = Bytes.length run / w
let item run w i = Bytes.sub run (w * i) w
let slice run w pos len = Bytes.sub run (w * pos) (w * len)

let splice run w pos x =
  let r = Bytes.create (Bytes.length run + w) in
  Bytes.blit run 0 r 0 (w * pos);
  Bytes.blit x 0 r (w * pos) w;
  Bytes.blit run (w * pos) r (w * (pos + 1)) (Bytes.length run - (w * pos));
  r

let remove run w pos =
  Bytes.cat (slice run w 0 pos) (slice run w (pos + 1) (count run w - pos - 1))

let replace run w pos x =
  let r = Bytes.copy run in
  Bytes.blit x 0 r (w * pos) w;
  r

let child_at run i = Int32.to_int (Bytes.get_int32_le run (child_bytes * i))

let child_item index =
  let r = Bytes.create child_bytes in
  Bytes.set_int32_le r 0 (Int32.of_int index);
  r

(* Order of the entries at byte positions [pa] of [a] and [pb] of [b]. *)
let cmp_at a pa b pb =
  let c = Int.compare (key_at a pa) (key_at b pb) in
  if c <> 0 then c else Rid.compare (rid_at a pa) (rid_at b pb)

let encode_node node =
  match node with
  | Leaf { next; entries } ->
      let n = count entries entry_bytes in
      assert (n <= leaf_cap);
      let b = Bytes.make leaf_record_bytes '\000' in
      Bytes.set_uint8 b 0 1;
      Bytes.set_int32_le b 1 (Int32.of_int next);
      Bytes.set_uint16_le b 5 n;
      Bytes.blit entries 0 b (leaf_entry 0 0) (Bytes.length entries);
      b
  | Internal { children; seps } ->
      let n = count seps entry_bytes in
      assert (n <= internal_cap);
      let b = Bytes.make internal_record_bytes '\000' in
      Bytes.set_uint8 b 0 0;
      Bytes.set_uint16_le b 1 n;
      Bytes.blit children 0 b (child_pos 0 0) (child_bytes * (n + 1));
      Bytes.blit seps 0 b (sep_entry 0 0) (Bytes.length seps);
      b

let decode_node page =
  let b = Page_layout.buffer page in
  let off = Page_layout.record_offset page 0 in
  if is_leaf b off then
    Leaf
      {
        next = leaf_next b off;
        entries = Bytes.sub b (leaf_entry off 0) (entry_bytes * leaf_n b off);
      }
  else
    let n = internal_n b off in
    Internal
      {
        children = Bytes.sub b (child_pos off 0) (child_bytes * (n + 1));
        seps = Bytes.sub b (sep_entry off 0) (entry_bytes * n);
      }

(* --- page access --- *)

let page_for t index writable =
  let pid = Tb_storage.Page_id.make ~file:t.file ~index in
  if writable then Tb_storage.Cache_stack.fetch_for_write t.stack pid
  else Tb_storage.Cache_stack.fetch t.stack pid

let read_node t index = decode_node (page_for t index false)

(* Write an encoded node record to the page at [index]. *)
let write_record t index b =
  let page = page_for t index true in
  if Page_layout.slot_count page = 0 then
    match Page_layout.insert page b with
    | Some 0 -> ()
    | Some _ | None -> failwith "Btree: node page corrupt"
  else if not (Page_layout.update page 0 b) then
    failwith "Btree: node exceeds page"

let write_node t index node = write_record t index (encode_node node)

let alloc_record t b =
  let index =
    Tb_storage.Disk.append_page (Tb_storage.Cache_stack.disk t.stack) ~file:t.file
  in
  write_record t index b;
  index

let alloc_node t node = alloc_record t (encode_node node)

let create stack ~name =
  let file = Tb_storage.Disk.new_file (Tb_storage.Cache_stack.disk stack) ~name in
  let t = { stack; file; name; root = 0; entries = 0 } in
  t.root <- alloc_node t (Leaf { next = -1; entries = Bytes.empty });
  t

let entry_count t = t.entries

let page_count t =
  Tb_storage.Disk.page_count (Tb_storage.Cache_stack.disk t.stack) t.file

let sim t = Tb_storage.Cache_stack.sim t.stack

(* Binary search over the [n] entries whose first byte is at [base]: index
   of the first entry strictly greater than the probe; charges the
   comparisons it performs. *)
let upper_bound t b base n key rid =
  let cmps = ref 0 in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    incr cmps;
    if cmp_probe b (base + (entry_bytes * mid)) key rid < 0 then hi := mid
    else lo := mid + 1
  done;
  Tb_sim.Sim.charge_compare (sim t) !cmps;
  !lo

(* Position of the first entry >= the probe. *)
let lower_bound t b base n key rid =
  let cmps = ref 0 in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    incr cmps;
    if cmp_probe b (base + (entry_bytes * mid)) key rid > 0 then lo := mid + 1
    else hi := mid
  done;
  Tb_sim.Sim.charge_compare (sim t) !cmps;
  !lo

(* --- in-place edits ---

   Each helper fetches the page for writing (the single write fetch the
   encode-the-whole-node path charged) and patches only the record bytes
   that move. *)

let leaf_insert t index pos key rid =
  let page = page_for t index true in
  let b = Page_layout.buffer page in
  let off = Page_layout.record_offset page 0 in
  let n = leaf_n b off in
  let epos = leaf_entry off pos in
  Bytes.blit b epos b (epos + entry_bytes) (entry_bytes * (n - pos));
  put_entry b epos key rid;
  Bytes.set_uint16_le b (off + 5) (n + 1);
  Page_layout.record_modified page ~off:epos ~len:(entry_bytes * (n - pos + 1));
  Page_layout.record_modified page ~off:(off + 5) ~len:2

let leaf_remove t index pos =
  let page = page_for t index true in
  let b = Page_layout.buffer page in
  let off = Page_layout.record_offset page 0 in
  let n = leaf_n b off - 1 in
  let epos = leaf_entry off pos in
  Bytes.blit b (epos + entry_bytes) b epos (entry_bytes * (n - pos));
  Bytes.set_uint16_le b (off + 5) n;
  Page_layout.record_modified page ~off:epos ~len:(entry_bytes * (n - pos));
  Page_layout.record_modified page ~off:(off + 5) ~len:2

(* Insert separator [sep] / right child after child [child_idx]; only for
   non-overflowing parents (n < internal_cap). *)
let internal_insert t index child_idx sep right_page =
  let page = page_for t index true in
  let b = Page_layout.buffer page in
  let off = Page_layout.record_offset page 0 in
  let nk = internal_n b off in
  let cpos = child_pos off (child_idx + 1) in
  Bytes.blit b cpos b (cpos + 4) (4 * (nk - child_idx));
  Bytes.set_int32_le b cpos (Int32.of_int right_page);
  let spos = sep_entry off child_idx in
  Bytes.blit b spos b (spos + entry_bytes) (entry_bytes * (nk - child_idx));
  Bytes.blit sep 0 b spos entry_bytes;
  Bytes.set_uint16_le b (off + 1) (nk + 1);
  Page_layout.record_modified page ~off:(off + 1) ~len:2;
  Page_layout.record_modified page ~off:cpos ~len:(4 * (nk - child_idx + 1));
  Page_layout.record_modified page ~off:spos
    ~len:(entry_bytes * (nk - child_idx + 1))

(* --- insertion --- *)

type split = No_split | Split of Bytes.t * int (* separator entry, right page *)

(* Split the full leaf at [index] (whose bytes [page] holds) around an
   insert of (key, rid) at [pos].  The merged run is entries [0, n] with the
   new entry at [pos]; the right node takes [mid, n] and is encoded
   straight from the page bytes before its page is allocated.  The left
   half stays on this page, where only the bytes at [pos .. mid) move (none
   when the insert landed in the right half), plus the next pointer and
   the count. *)
let split_leaf t index page pos key rid =
  let b = Page_layout.buffer page in
  let off = Page_layout.record_offset page 0 in
  let n = leaf_n b off in
  let mid = (n + 1) / 2 in
  let right = Bytes.make leaf_record_bytes '\000' in
  Bytes.set_uint8 right 0 1;
  Bytes.blit b (off + 1) right 1 4 (* next *);
  Bytes.set_uint16_le right 5 (n + 1 - mid);
  if pos < mid then
    Bytes.blit b (leaf_entry off (mid - 1)) right (leaf_entry 0 0)
      (entry_bytes * (n + 1 - mid))
  else begin
    Bytes.blit b (leaf_entry off mid) right (leaf_entry 0 0) (entry_bytes * (pos - mid));
    put_entry right (leaf_entry 0 (pos - mid)) key rid;
    Bytes.blit b (leaf_entry off pos) right
      (leaf_entry 0 (pos - mid + 1))
      (entry_bytes * (n - pos))
  end;
  let sep = Bytes.sub right (leaf_entry 0 0) entry_bytes in
  let right_page = alloc_record t right in
  let page = page_for t index true in
  let b = Page_layout.buffer page in
  let off = Page_layout.record_offset page 0 in
  if pos < mid then begin
    let epos = leaf_entry off pos in
    Bytes.blit b epos b (epos + entry_bytes) (entry_bytes * (mid - 1 - pos));
    put_entry b epos key rid;
    Page_layout.record_modified page ~off:epos ~len:(entry_bytes * (mid - pos))
  end;
  Bytes.set_int32_le b (off + 1) (Int32.of_int right_page);
  Bytes.set_uint16_le b (off + 5) mid;
  Page_layout.record_modified page ~off:(off + 1) ~len:6;
  Split (sep, right_page)

(* Split the full internal node at [index] after child [child_idx] split
   into ([sep], [right_page]); both halves are re-encoded. *)
let split_internal t index page child_idx sep right_page =
  match decode_node page with
  | Leaf _ -> failwith "Btree: expected internal node"
  | Internal { children; seps } ->
      let seps = splice seps entry_bytes child_idx sep in
      let children = splice children child_bytes (child_idx + 1) (child_item right_page) in
      let total = count seps entry_bytes in
      let mid = total / 2 in
      let right_page =
        alloc_node t
          (Internal
             {
               children = slice children child_bytes (mid + 1) (total - mid);
               seps = slice seps entry_bytes (mid + 1) (total - mid - 1);
             })
      in
      write_node t index
        (Internal
           {
             children = slice children child_bytes 0 (mid + 1);
             seps = slice seps entry_bytes 0 mid;
           });
      Split (item seps entry_bytes mid, right_page)

(* The node's bytes on [page] stay current across the recursion: only child
   subtrees change below, so the split paths may read [page] itself. *)
let rec ins t index key rid =
  let page = page_for t index false in
  let b = Page_layout.buffer page in
  let off = Page_layout.record_offset page 0 in
  if is_leaf b off then begin
    let n = leaf_n b off in
    let pos = lower_bound t b (leaf_entry off 0) n key rid in
    if pos < n && cmp_probe b (leaf_entry off pos) key rid = 0 then
      No_split (* duplicate (key, rid): ignored *)
    else begin
      t.entries <- t.entries + 1;
      if n < leaf_cap then begin
        leaf_insert t index pos key rid;
        No_split
      end
      else split_leaf t index page pos key rid
    end
  end
  else
    let child_idx = upper_bound t b (sep_entry off 0) (internal_n b off) key rid in
    match ins t (child b off child_idx) key rid with
    | No_split -> No_split
    | Split (sep, right_page) ->
        if internal_n b off < internal_cap then begin
          internal_insert t index child_idx sep right_page;
          No_split
        end
        else split_internal t index page child_idx sep right_page

let insert t ~key ~rid =
  match ins t t.root key rid with
  | No_split -> ()
  | Split (sep, right_page) ->
      t.root <-
        alloc_node t
          (Internal
             { children = Bytes.cat (child_item t.root) (child_item right_page); seps = sep })

(* --- lookup --- *)

(* Leaf page that may contain the first entry >= the probe.  The
   position inside it is [leaf_start]'s: returning the pair would box a
   tuple per lookup. *)
let rec descend t index key rid =
  let page = page_for t index false in
  let b = Page_layout.buffer page in
  let off = Page_layout.record_offset page 0 in
  if is_leaf b off then page
  else
    descend t
      (child b off (upper_bound t b (sep_entry off 0) (internal_n b off) key rid))
      key rid

let leaf_start t page key rid =
  let b = Page_layout.buffer page in
  let off = Page_layout.record_offset page 0 in
  lower_bound t b (leaf_entry off 0) (leaf_n b off) key rid

let leaf_page t index =
  let page = page_for t index false in
  if is_leaf (Page_layout.buffer page) (Page_layout.record_offset page 0) then page
  else failwith "Btree: leaf chain reaches internal node"

(* Visit entries from position [i] of the leaf on [page] onward, along the
   leaf chain, while their key is below [hi].  The callback must not mutate
   the tree: the walk reads the bytes of the page objects it holds. *)
let rec walk t page i ~hi f =
  let b = Page_layout.buffer page in
  let off = Page_layout.record_offset page 0 in
  walk_leaf t b off (leaf_n b off) i ~hi f

and walk_leaf t b off n i ~hi f =
  if i >= n then begin
    let next = leaf_next b off in
    if next >= 0 then walk t (leaf_page t next) 0 ~hi f
  end
  else begin
    let pos = leaf_entry off i in
    let key = key_at b pos in
    Tb_sim.Sim.charge_compare (sim t) 1;
    if match hi with Some h -> key < h | None -> true then begin
      f key (rid_at b pos);
      walk_leaf t b off n (i + 1) ~hi f
    end
  end

(* Single pass: the leaf chain yields entries in ascending (key, rid) order
   already, so build the result front-to-back instead of accumulating a
   reversed list and flipping it. *)
let search t ~key =
  let rec collect b off n i =
    if i >= n then
      let next = leaf_next b off in
      if next < 0 then []
      else
        let page = leaf_page t next in
        let b = Page_layout.buffer page in
        let off = Page_layout.record_offset page 0 in
        collect b off (leaf_n b off) 0
    else begin
      let pos = leaf_entry off i in
      Tb_sim.Sim.charge_compare (sim t) 1;
      if key_at b pos = key then rid_at b pos :: collect b off n (i + 1) else []
    end
  in
  let page = descend t t.root key Rid.nil in
  let pos = leaf_start t page key Rid.nil in
  let b = Page_layout.buffer page in
  let off = Page_layout.record_offset page 0 in
  collect b off (leaf_n b off) pos

let range t ?lo ?hi f =
  let start = match lo with Some k -> k | None -> min_int in
  let page = descend t t.root start Rid.nil in
  walk t page (leaf_start t page start Rid.nil) ~hi f

let iter t f = range t f

(* --- deletion with rebalancing ---

   Underfull nodes (below half capacity) borrow from a sibling when one can
   spare an entry, and merge with a sibling otherwise; merges may propagate
   underflow upward, and an internal root left with a single child is
   replaced by it (height shrink).  Merged-away pages are simply abandoned
   (the simulated disk has no free list; O2 reclaimed space on
   dump-and-reload, Section 2). *)

let min_leaf = leaf_cap / 2
let min_internal = internal_cap / 2

(* Rebalance underfull child [i] of the internal node at [index].  The
   rebalancing paths copy the nodes they touch out as raw runs and write
   fresh records built from slices of them. *)
let fix_child t index i =
  let e = entry_bytes and c = child_bytes in
  let children, seps =
    match read_node t index with
    | Internal p -> (p.children, p.seps)
    | Leaf _ -> failwith "Btree: expected internal node"
  in
  let child_page j = child_at children j in
  let child = read_node t (child_page i) in
  let borrow_from_left () =
    if i = 0 then false
    else
      match (read_node t (child_page (i - 1)), child) with
      | Leaf left, Leaf right when count left.entries e > min_leaf ->
          let n = count left.entries e in
          let moved = item left.entries e (n - 1) in
          write_node t (child_page (i - 1))
            (Leaf { next = left.next; entries = slice left.entries e 0 (n - 1) });
          write_node t (child_page i)
            (Leaf { next = right.next; entries = splice right.entries e 0 moved });
          write_node t index (Internal { children; seps = replace seps e (i - 1) moved });
          true
      | Internal left, Internal right when count left.seps e > min_internal ->
          let n = count left.seps e in
          (* Rotate through the parent separator. *)
          let right' =
            Internal
              {
                children = splice right.children c 0 (item left.children c n);
                seps = splice right.seps e 0 (item seps e (i - 1));
              }
          in
          write_node t (child_page (i - 1))
            (Internal
               {
                 children = slice left.children c 0 n;
                 seps = slice left.seps e 0 (n - 1);
               });
          write_node t (child_page i) right';
          write_node t index
            (Internal { children; seps = replace seps e (i - 1) (item left.seps e (n - 1)) });
          true
      | _ -> false
  in
  let borrow_from_right () =
    if i >= count children c - 1 then false
    else
      match (child, read_node t (child_page (i + 1))) with
      | Leaf left, Leaf right when count right.entries e > min_leaf ->
          let moved = item right.entries e 0 in
          write_node t (child_page i)
            (Leaf
               {
                 next = left.next;
                 entries = splice left.entries e (count left.entries e) moved;
               });
          write_node t
            (child_page (i + 1))
            (Leaf { next = right.next; entries = remove right.entries e 0 });
          write_node t index
            (Internal { children; seps = replace seps e i (item right.entries e 1) });
          true
      | Internal left, Internal right when count right.seps e > min_internal ->
          let nk = count left.seps e in
          let left' =
            Internal
              {
                children = splice left.children c (nk + 1) (item right.children c 0);
                seps = splice left.seps e nk (item seps e i);
              }
          in
          write_node t (child_page i) left';
          write_node t
            (child_page (i + 1))
            (Internal
               { children = remove right.children c 0; seps = remove right.seps e 0 });
          write_node t index
            (Internal { children; seps = replace seps e i (item right.seps e 0) });
          true
      | _ -> false
  in
  (* Merge child [l] with child [l+1]. *)
  let merge l =
    (match (read_node t (child_page l), read_node t (child_page (l + 1))) with
    | Leaf left, Leaf right ->
        write_node t (child_page l)
          (Leaf { next = right.next; entries = Bytes.cat left.entries right.entries })
    | Internal left, Internal right ->
        write_node t (child_page l)
          (Internal
             {
               children = Bytes.cat left.children right.children;
               seps = Bytes.concat Bytes.empty [ left.seps; item seps e l; right.seps ];
             })
    | _ -> failwith "Btree: sibling arity mismatch");
    write_node t index
      (Internal { children = remove children c (l + 1); seps = remove seps e l })
  in
  if not (borrow_from_left () || borrow_from_right ()) then
    if i > 0 then merge (i - 1) else merge i

let underfull page =
  let b = Page_layout.buffer page in
  let off = Page_layout.record_offset page 0 in
  if is_leaf b off then leaf_n b off < min_leaf else internal_n b off < min_internal

(* Returns (found, now_underfull). *)
let rec delete_rec t index key rid =
  let page = page_for t index false in
  let b = Page_layout.buffer page in
  let off = Page_layout.record_offset page 0 in
  if is_leaf b off then begin
    let n = leaf_n b off in
    let pos = lower_bound t b (leaf_entry off 0) n key rid in
    if pos < n && cmp_probe b (leaf_entry off pos) key rid = 0 then begin
      leaf_remove t index pos;
      (true, n - 1 < min_leaf)
    end
    else (false, false)
  end
  else
    let i = upper_bound t b (sep_entry off 0) (internal_n b off) key rid in
    let found, under = delete_rec t (child b off i) key rid in
    if found && under then begin
      fix_child t index i;
      (true, underfull (page_for t index false))
    end
    else (found, false)

let delete t ~key ~rid =
  let found, _ = delete_rec t t.root key rid in
  if found then begin
    t.entries <- t.entries - 1;
    (* Height shrink: an internal root with a single child is redundant. *)
    let page = page_for t t.root false in
    let b = Page_layout.buffer page in
    let off = Page_layout.record_offset page 0 in
    if (not (is_leaf b off)) && internal_n b off = 0 then t.root <- child b off 0
  end;
  found

(* --- sorted bulk build --- *)

(* Comparisons [upper_bound]/[lower_bound] perform over [n] sorted entries
   when the probe is greater than all of them: the search always takes the
   upper half, so the count depends only on [n]. *)
let bound_count_above n =
  let c = ref 0 and lo = ref 0 and hi = ref n in
  while !lo < !hi do
    incr c;
    lo := ((!lo + !hi) / 2) + 1
  done;
  !c

(* Comparisons [lower_bound] performs when the probe equals the last of [n]
   strictly increasing entries. *)
let lb_count_last n =
  let c = ref 0 and lo = ref 0 and hi = ref n in
  while !lo < !hi do
    incr c;
    let mid = (!lo + !hi) / 2 in
    if mid = n - 1 then hi := mid else lo := mid + 1
  done;
  !c

(* Precomputed [bound_count_above] for every occupancy the fast path can
   see, so each append pays a table lookup instead of a loop. *)
let bound_above_tbl =
  lazy
    (let cap = if leaf_cap > internal_cap then leaf_cap else internal_cap in
     Array.init (cap + 1) bound_count_above)

let bulk_add t run =
  (* One O(n) pass decides whether the run needs sorting at all.  The
     production caller — [Database.create_index] over a clustered extent —
     hands us an already-sorted run, which then skips the host sort
     entirely. *)
  let n = Array.length run in
  let sorted = ref true in
  let i = ref 0 in
  while !sorted && !i < n - 1 do
    let k1, r1 = Array.unsafe_get run !i
    and k2, r2 = Array.unsafe_get run (!i + 1) in
    if k1 > k2 || (k1 = k2 && Rid.compare r1 r2 > 0) then sorted := false;
    incr i
  done;
  let run =
    if !sorted then run
    else begin
      let a = Array.copy run in
      Array.sort
        (fun (k1, r1) (k2, r2) ->
          let c = Int.compare k1 k2 in
          if c <> 0 then c else Rid.compare r1 r2)
        a;
      a
    end
  in
  if t.entries <> 0 then
    (* Entries may interleave with existing keys, so the append fast path
       does not apply; the tree shape and the simulated charges are exactly
       those of the caller looping [insert] over the sorted run. *)
    Array.iter (fun (key, rid) -> insert t ~key ~rid) run
  else begin
    let sim_ = sim t in
    let tbl = Lazy.force bound_above_tbl in
    (* Hand-inlined [Sim.charge_client_hit] / [Sim.charge_compare]: the
       same counter bumps and the same float additions in the same order,
       minus two call levels per event.  [Clock.t] exposes its field for
       exactly this loop. *)
    let ctr = sim_.Tb_sim.Sim.counters in
    let clk = sim_.Tb_sim.Sim.clock in
    let hit_ms = sim_.Tb_sim.Sim.cost.Tb_sim.Cost_model.client_hit_ms in
    let cmp_us = sim_.Tb_sim.Sim.cost.Tb_sim.Cost_model.compare_us in
    let hit () =
      ctr.Tb_sim.Counters.client_hits <- ctr.Tb_sim.Counters.client_hits + 1;
      clk.Tb_sim.Clock.now_ms <- clk.Tb_sim.Clock.now_ms +. hit_ms;
      clk.Tb_sim.Clock.work_ms <- clk.Tb_sim.Clock.work_ms +. hit_ms
    in
    let cmps n =
      if n > 0 then begin
        ctr.Tb_sim.Counters.comparisons <-
          ctr.Tb_sim.Counters.comparisons + n;
        let ms = float_of_int n *. cmp_us /. 1000.0 in
        clk.Tb_sim.Clock.now_ms <- clk.Tb_sim.Clock.now_ms +. ms;
        clk.Tb_sim.Clock.work_ms <- clk.Tb_sim.Clock.work_ms +. ms
      end
    in
    (* Rightmost-path state, rebuilt charge-free after every real insert.
       Between real inserts nothing touches the cache stack, so every path
       page verified [resident] stays resident, each append's fetches are
       guaranteed client hits, and the pools' eviction order cannot diverge
       from the per-entry build's (only real inserts add pages, and they
       re-touch the path in the same relative order an append would). *)
    let live = ref false in
    (* Binary-search compare count per internal level, top-down. *)
    let spine = ref [||] in
    (* The rightmost leaf: its page id, page, record offset and entry
       count.  A placeholder until the first [refresh]; [live] gates its
       use.  [logged] tells whether an append has reported the leaf to the
       write observer since the last [refresh]. *)
    let bpid = ref (Tb_storage.Page_id.make ~file:t.file ~index:t.root) in
    let bpage = ref (Page_layout.create ~size:64) in
    let boff = ref 0 in
    let bn = ref 0 in
    let logged = ref false in
    let refresh () =
      live := true;
      logged := false;
      let rec go index acc =
        let pid = Tb_storage.Page_id.make ~file:t.file ~index in
        match Tb_storage.Cache_stack.peek t.stack pid with
        | None -> live := false
        | Some page ->
            let b = Page_layout.buffer page in
            let off = Page_layout.record_offset page 0 in
            if is_leaf b off then begin
              spine := Array.of_list (List.rev acc);
              bpid := pid;
              bpage := page;
              boff := off;
              bn := leaf_n b off
            end
            else
              let nk = internal_n b off in
              go (child b off nk) (tbl.(nk) :: acc)
      in
      go t.root []
    in
    let slow key rid =
      insert t ~key ~rid;
      refresh ()
    in
    for i = 0 to n - 1 do
      let key, rid = Array.unsafe_get run i in
      let n = !bn in
      if (not !live) || n = 0 || n >= leaf_cap then slow key rid
      else begin
        let page = !bpage and off = !boff in
        let b = Page_layout.buffer page in
        let last = leaf_entry off (n - 1) in
        let last_key = key_at b last in
        let cls =
          if key > last_key then 1
          else if key < last_key then -1
          else Rid.compare rid (rid_at b last)
        in
        if cls < 0 then slow key rid (* unreachable for a sorted run *)
        else begin
          (* Replay the per-entry descent's simulated charges: a client-hit
             fetch then a binary search per level. *)
          let sc = !spine in
          for l = 0 to Array.length sc - 1 do
            hit ();
            cmps (Array.unsafe_get sc l)
          done;
          hit ();
          if cls = 0 then
            (* Duplicate (key, rid): the descent prices its probe and stops
               before the write fetch, as [ins] does. *)
            cmps (lb_count_last n)
          else begin
            cmps (Array.unsafe_get tbl n);
            hit ();
            (* The replayed hit stands for the per-entry insert's write
               fetch; report the leaf to the write observer as that fetch
               would.  The slow path may have fetched it read-only (a
               duplicate entry), or a pool eviction may have written it to
               disk since, so the WAL must not rely on an earlier touch. *)
            if not !logged then begin
              Tb_storage.Cache_stack.note_write t.stack !bpid page;
              logged := true
            end;
            put_entry b (leaf_entry off n) key rid;
            Bytes.set_uint16_le b (off + 5) (n + 1);
            Page_layout.record_modified page ~off:(leaf_entry off n)
              ~len:entry_bytes;
            Page_layout.record_modified page ~off:(off + 5) ~len:2;
            bn := n + 1;
            t.entries <- t.entries + 1
          end
        end
      end
    done
  end

let bulk_build stack ~name run =
  let t = create stack ~name in
  bulk_add t run;
  t

(* --- statistics and checks --- *)

let clustering_factor t =
  let in_order = ref 0 and total = ref 0 in
  let prev = ref None in
  iter t (fun _ rid ->
      (match !prev with
      | Some p ->
          incr total;
          if Rid.compare p rid <= 0 then incr in_order
      | None -> ());
      prev := Some rid);
  if !total = 0 then 1.0 else float_of_int !in_order /. float_of_int !total

let key_bounds t =
  let bounds = ref None in
  iter t (fun key _ ->
      bounds :=
        Some
          (match !bounds with
          | None -> (key, key)
          | Some (lo, hi) -> (min lo key, max hi key)));
  !bounds

let check_invariants t =
  let e = entry_bytes in
  let rec check index lo hi =
    match read_node t index with
    | Leaf lf ->
        for i = 0 to count lf.entries e - 1 do
          let p = e * i in
          (match lo with
          | Some l when cmp_at lf.entries p l 0 < 0 -> failwith "btree: entry below bound"
          | _ -> ());
          (match hi with
          | Some h when cmp_at lf.entries p h 0 >= 0 -> failwith "btree: entry above bound"
          | _ -> ());
          if i > 0 && cmp_at lf.entries (p - e) lf.entries p >= 0 then
            failwith "btree: leaf out of order"
        done
    | Internal ino ->
        let nk = count ino.seps e in
        for i = 1 to nk - 1 do
          if cmp_at ino.seps (e * (i - 1)) ino.seps (e * i) >= 0 then
            failwith "btree: separators out of order"
        done;
        for i = 0 to nk do
          let lo' = if i = 0 then lo else Some (item ino.seps e (i - 1)) in
          let hi' = if i = nk then hi else Some (item ino.seps e i) in
          check (child_at ino.children i) lo' hi'
        done
  in
  (* Occupancy: every non-root node is at least half full. *)
  let rec occupancy index =
    match read_node t index with
    | Leaf lf ->
        if index <> t.root && count lf.entries e < min_leaf then
          failwith "btree: underfull leaf"
    | Internal ino ->
        if index <> t.root && count ino.seps e < min_internal then
          failwith "btree: underfull internal node"
        else
          for i = 0 to count ino.children child_bytes - 1 do
            occupancy (child_at ino.children i)
          done
  in
  occupancy t.root;
  check t.root None None;
  (* Every entry is reachable through the leaf chain. *)
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  if !n <> t.entries then failwith "btree: entry count mismatch"

(* Checkpoint support: the tree's volatile state is the root index and the
   entry count; everything else lives on pages (recovered by the log). *)

type state = { st_root : int; st_entries : int }

let checkpoint t = { st_root = t.root; st_entries = t.entries }

let restore t s =
  t.root <- s.st_root;
  t.entries <- s.st_entries
