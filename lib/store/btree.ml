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
   - decoded nodes are memoized per page, keyed on the page's write-version
     counter ([Page_layout.version]), so repeat visits skip re-decode;
   - the hot mutations (leaf insert/remove, internal separator insert) shift
     capacity-sized arrays in place and blit only the moved tail of the
     record bytes; splits and delete-time rebalancing keep the simple
     build-a-fresh-node path;
   - [bulk_add] appends a sorted run along a remembered rightmost path,
     replaying exactly the client-hit and comparison charges the per-entry
     descent would have emitted. *)

module Rid = Tb_storage.Rid
module Int_table = Tb_storage.Int_table
module Page_layout = Tb_storage.Page_layout

type entry = { key : int; rid : Rid.t }

type leaf = {
  mutable next : int;
  mutable n : int;
  entries : entry array; (* capacity [leaf_cap + 1]: one slot of split slack *)
}

type internal = {
  mutable nk : int; (* live separators; live children = nk + 1 *)
  children : int array; (* capacity [internal_cap + 2] *)
  seps : entry array; (* capacity [internal_cap + 1] *)
}

type node = Leaf of leaf | Internal of internal

(* Decoded-node cache entry: valid while [ver] matches the page's
   write-version counter. *)
type cached = { mutable ver : int; mutable node : node }

type t = {
  stack : Tb_storage.Cache_stack.t;
  file : int;
  name : string;
  mutable root : int;
  mutable entries : int;
  cache : cached Int_table.t; (* page index -> decoded node *)
}

let leaf_cap = 200
let internal_cap = 150

let cmp_entry a b =
  let c = Int.compare a.key b.key in
  if c <> 0 then c else Rid.compare a.rid b.rid

let dummy_entry = { key = 0; rid = Rid.nil }

let new_leaf ~next =
  { next; n = 0; entries = Array.make (leaf_cap + 1) dummy_entry }

let new_internal () =
  {
    nk = 0;
    children = Array.make (internal_cap + 2) (-1);
    seps = Array.make (internal_cap + 1) dummy_entry;
  }

(* Build nodes from exact-length plain arrays (the rebalancing paths, which
   construct fresh nodes piecewise the way the original code did). *)
let mk_leaf ~next src =
  let lf = new_leaf ~next in
  Array.blit src 0 lf.entries 0 (Array.length src);
  lf.n <- Array.length src;
  Leaf lf

(* [mk_leaf] over a slice of [src], without the intermediate [Array.sub]. *)
let leaf_of_range ~next src pos len =
  let lf = new_leaf ~next in
  Array.blit src pos lf.entries 0 len;
  lf.n <- len;
  Leaf lf

let mk_internal children seps =
  let ino = new_internal () in
  Array.blit children 0 ino.children 0 (Array.length children);
  Array.blit seps 0 ino.seps 0 (Array.length seps);
  ino.nk <- Array.length seps;
  Internal ino

(* Live prefixes as plain arrays. *)
let leaf_entries (lf : leaf) = Array.sub lf.entries 0 lf.n
let internal_children ino = Array.sub ino.children 0 (ino.nk + 1)
let internal_seps ino = Array.sub ino.seps 0 ino.nk

(* --- node serialization --- *)

let entry_bytes = 16
let leaf_base = 7
let leaf_record_bytes = leaf_base + (entry_bytes * leaf_cap)
let internal_seps_base = 3 + (4 * (internal_cap + 1))
let internal_record_bytes = internal_seps_base + (entry_bytes * internal_cap)

let put_entry b pos e =
  Bytes.set_int64_le b pos (Int64.of_int e.key);
  Rid.encode_into e.rid b ~pos:(pos + 8)

let encode_node node =
  match node with
  | Leaf lf ->
      assert (lf.n <= leaf_cap);
      let b = Bytes.make leaf_record_bytes '\000' in
      Bytes.set_uint8 b 0 1;
      Bytes.set_int32_le b 1 (Int32.of_int lf.next);
      Bytes.set_uint16_le b 5 lf.n;
      for i = 0 to lf.n - 1 do
        put_entry b (leaf_base + (entry_bytes * i)) lf.entries.(i)
      done;
      b
  | Internal ino ->
      assert (ino.nk <= internal_cap);
      let b = Bytes.make internal_record_bytes '\000' in
      Bytes.set_uint8 b 0 0;
      Bytes.set_uint16_le b 1 ino.nk;
      for i = 0 to ino.nk do
        Bytes.set_int32_le b (3 + (4 * i)) (Int32.of_int ino.children.(i))
      done;
      for i = 0 to ino.nk - 1 do
        put_entry b (internal_seps_base + (entry_bytes * i)) ino.seps.(i)
      done;
      b

(* Decode record 0 straight out of the page buffer (no [Page_layout.read]
   copy). *)
let decode_page page =
  let b = Page_layout.buffer page in
  let off = Page_layout.record_offset page 0 in
  let read_entry pos =
    {
      key = Int64.to_int (Bytes.get_int64_le b pos);
      rid = Rid.decode b ~pos:(pos + 8);
    }
  in
  if Bytes.get_uint8 b off = 1 then begin
    let lf = new_leaf ~next:(Int32.to_int (Bytes.get_int32_le b (off + 1))) in
    let n = Bytes.get_uint16_le b (off + 5) in
    for i = 0 to n - 1 do
      lf.entries.(i) <- read_entry (off + leaf_base + (entry_bytes * i))
    done;
    lf.n <- n;
    Leaf lf
  end
  else begin
    let ino = new_internal () in
    let n = Bytes.get_uint16_le b (off + 1) in
    for i = 0 to n do
      ino.children.(i) <- Int32.to_int (Bytes.get_int32_le b (off + 3 + (4 * i)))
    done;
    for i = 0 to n - 1 do
      ino.seps.(i) <- read_entry (off + internal_seps_base + (entry_bytes * i))
    done;
    ino.nk <- n;
    Internal ino
  end

(* --- page access --- *)

let page_for t index writable =
  let pid = Tb_storage.Page_id.make ~file:t.file ~index in
  if writable then Tb_storage.Cache_stack.fetch_for_write t.stack pid
  else Tb_storage.Cache_stack.fetch t.stack pid

(* Cache slot for [index], (re)decoding if the page has been written since
   the slot was filled. *)
let cached_for t index page =
  let v = Page_layout.version page in
  match Int_table.find_opt t.cache index with
  | Some c ->
      if c.ver <> v then begin
        c.node <- decode_page page;
        c.ver <- v
      end;
      c
  | None ->
      let c = { ver = v; node = decode_page page } in
      Int_table.replace t.cache index c;
      c

let read_node t index = (cached_for t index (page_for t index false)).node

(* Re-point the cache at [node], valid as of the page's current version. *)
let stamp t index page node =
  match Int_table.find_opt t.cache index with
  | Some c ->
      c.node <- node;
      c.ver <- Page_layout.version page
  | None ->
      Int_table.replace t.cache index { ver = Page_layout.version page; node }

let write_node t index node =
  let page = page_for t index true in
  let b = encode_node node in
  (if Page_layout.slot_count page = 0 then
     match Page_layout.insert page b with
     | Some 0 -> ()
     | Some _ | None -> failwith "Btree: node page corrupt"
   else if not (Page_layout.update page 0 b) then
     failwith "Btree: node exceeds page");
  stamp t index page node

let alloc_node t node =
  let index =
    Tb_storage.Disk.append_page (Tb_storage.Cache_stack.disk t.stack) ~file:t.file
  in
  write_node t index node;
  index

let create stack ~name =
  let file = Tb_storage.Disk.new_file (Tb_storage.Cache_stack.disk stack) ~name in
  let t =
    { stack; file; name; root = 0; entries = 0; cache = Int_table.create 64 }
  in
  t.root <- alloc_node t (Leaf (new_leaf ~next:(-1)));
  t

let name t = t.name
let entry_count t = t.entries

let page_count t =
  Tb_storage.Disk.page_count (Tb_storage.Cache_stack.disk t.stack) t.file

let sim t = Tb_storage.Cache_stack.sim t.stack

(* Binary search over the live prefix [arr.(0 .. n-1)]: index of the first
   element strictly greater than [e]; charges the comparisons it performs. *)
let upper_bound t arr n e =
  let cmps = ref 0 in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    incr cmps;
    if cmp_entry e arr.(mid) < 0 then hi := mid else lo := mid + 1
  done;
  Tb_sim.Sim.charge_compare (sim t) !cmps;
  !lo

(* Position of the first element >= e. *)
let lower_bound t arr n e =
  let cmps = ref 0 in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    incr cmps;
    if cmp_entry arr.(mid) e < 0 then lo := mid + 1 else hi := mid
  done;
  Tb_sim.Sim.charge_compare (sim t) !cmps;
  !lo

let array_insert arr pos x =
  let n = Array.length arr in
  Array.init (n + 1) (fun i ->
      if i < pos then arr.(i) else if i = pos then x else arr.(i - 1))

let array_remove arr pos =
  let n = Array.length arr in
  Array.init (n - 1) (fun i -> if i < pos then arr.(i) else arr.(i + 1))

(* --- in-place edits ---

   Each helper fetches the page for writing first (the same single write
   fetch the old encode-the-whole-node path charged), mutates the decoded
   node's arrays, and patches only the record bytes that moved. *)

let leaf_insert_inplace t index (lf : leaf) pos e =
  let page = page_for t index true in
  let off = Page_layout.record_offset page 0 in
  Array.blit lf.entries pos lf.entries (pos + 1) (lf.n - pos);
  lf.entries.(pos) <- e;
  lf.n <- lf.n + 1;
  let b = Page_layout.buffer page in
  let epos = off + leaf_base + (entry_bytes * pos) in
  Bytes.blit b epos b (epos + entry_bytes) (entry_bytes * (lf.n - 1 - pos));
  put_entry b epos e;
  Bytes.set_uint16_le b (off + 5) lf.n;
  Page_layout.record_modified page;
  stamp t index page (Leaf lf)

let leaf_remove_inplace t index (lf : leaf) pos =
  let page = page_for t index true in
  let off = Page_layout.record_offset page 0 in
  Array.blit lf.entries (pos + 1) lf.entries pos (lf.n - pos - 1);
  lf.n <- lf.n - 1;
  let b = Page_layout.buffer page in
  let epos = off + leaf_base + (entry_bytes * pos) in
  Bytes.blit b (epos + entry_bytes) b epos (entry_bytes * (lf.n - pos));
  Bytes.set_uint16_le b (off + 5) lf.n;
  Page_layout.record_modified page;
  stamp t index page (Leaf lf)

(* Insert separator [sep] / right child after child [child_idx]; only for
   non-overflowing parents (nk < internal_cap). *)
let internal_insert_inplace t index ino child_idx sep right_page =
  let page = page_for t index true in
  let off = Page_layout.record_offset page 0 in
  let nk = ino.nk in
  Array.blit ino.seps child_idx ino.seps (child_idx + 1) (nk - child_idx);
  ino.seps.(child_idx) <- sep;
  Array.blit ino.children (child_idx + 1) ino.children (child_idx + 2)
    (nk - child_idx);
  ino.children.(child_idx + 1) <- right_page;
  ino.nk <- nk + 1;
  let b = Page_layout.buffer page in
  let cpos = off + 3 + (4 * (child_idx + 1)) in
  Bytes.blit b cpos b (cpos + 4) (4 * (nk - child_idx));
  Bytes.set_int32_le b cpos (Int32.of_int right_page);
  let spos = off + internal_seps_base + (entry_bytes * child_idx) in
  Bytes.blit b spos b (spos + entry_bytes) (entry_bytes * (nk - child_idx));
  put_entry b spos sep;
  Bytes.set_uint16_le b (off + 1) ino.nk;
  Page_layout.record_modified page;
  stamp t index page (Internal ino)

(* --- insertion --- *)

type split = No_split | Split of entry * int (* separator, right page *)

let rec ins t index e =
  match read_node t index with
  | Leaf lf ->
      let pos = lower_bound t lf.entries lf.n e in
      if pos < lf.n && cmp_entry lf.entries.(pos) e = 0 then
        No_split (* duplicate (key, rid): ignored *)
      else begin
        t.entries <- t.entries + 1;
        if lf.n < leaf_cap then begin
          leaf_insert_inplace t index lf pos e;
          No_split
        end
        else begin
          (* Overflow into the slack slot, then split. *)
          Array.blit lf.entries pos lf.entries (pos + 1) (lf.n - pos);
          lf.entries.(pos) <- e;
          lf.n <- lf.n + 1;
          let total = lf.n in
          let mid = total / 2 in
          let right = leaf_of_range ~next:lf.next lf.entries mid (total - mid) in
          let sep = lf.entries.(mid) in
          let right_page = alloc_node t right in
          (* The left half stays on this page: only the bytes at
             [pos .. mid) moved (none when the insert landed in the right
             half), plus the next pointer and the count. *)
          let page = page_for t index true in
          let off = Page_layout.record_offset page 0 in
          let b = Page_layout.buffer page in
          if pos < mid then begin
            let epos = off + leaf_base + (entry_bytes * pos) in
            Bytes.blit b epos b (epos + entry_bytes)
              (entry_bytes * (mid - 1 - pos));
            put_entry b epos e
          end;
          lf.n <- mid;
          lf.next <- right_page;
          Bytes.set_int32_le b (off + 1) (Int32.of_int right_page);
          Bytes.set_uint16_le b (off + 5) mid;
          Page_layout.record_modified page;
          stamp t index page (Leaf lf);
          Split (sep, right_page)
        end
      end
  | Internal ino -> (
      let child_idx = upper_bound t ino.seps ino.nk e in
      match ins t ino.children.(child_idx) e with
      | No_split -> No_split
      | Split (sep, right_page) ->
          if ino.nk < internal_cap then begin
            internal_insert_inplace t index ino child_idx sep right_page;
            No_split
          end
          else begin
            Array.blit ino.seps child_idx ino.seps (child_idx + 1)
              (ino.nk - child_idx);
            ino.seps.(child_idx) <- sep;
            Array.blit ino.children (child_idx + 1) ino.children (child_idx + 2)
              (ino.nk - child_idx);
            ino.children.(child_idx + 1) <- right_page;
            ino.nk <- ino.nk + 1;
            let total = ino.nk in
            let mid = total / 2 in
            let up = ino.seps.(mid) in
            let right =
              mk_internal
                (Array.sub ino.children (mid + 1) (total - mid))
                (Array.sub ino.seps (mid + 1) (total - mid - 1))
            in
            let right_page = alloc_node t right in
            ino.nk <- mid;
            write_node t index (Internal ino);
            Split (up, right_page)
          end)

let insert t ~key ~rid =
  match ins t t.root { key; rid } with
  | No_split -> ()
  | Split (sep, right_page) ->
      let new_root = alloc_node t (mk_internal [| t.root; right_page |] [| sep |]) in
      t.root <- new_root

(* --- lookup --- *)

(* Leaf that may contain the first entry >= e, plus the in-leaf position. *)
let rec descend t index e =
  match read_node t index with
  | Leaf lf -> (lf, lower_bound t lf.entries lf.n e)
  | Internal ino -> descend t ino.children.(upper_bound t ino.seps ino.nk e) e

(* Walk entries in order starting at the first >= start, while [keep] holds.
   The callback must not mutate the tree: it runs against the live decoded
   nodes. *)
let walk_from t start ~keep f =
  let lf0, pos0 = descend t t.root start in
  let rec leaf_loop (lf : leaf) pos =
    if pos >= lf.n then begin
      if lf.next >= 0 then
        match read_node t lf.next with
        | Leaf lf' -> leaf_loop lf' 0
        | Internal _ -> failwith "Btree: leaf chain reaches internal node"
    end
    else begin
      let e = lf.entries.(pos) in
      Tb_sim.Sim.charge_compare (sim t) 1;
      if keep e then begin
        f e;
        leaf_loop lf (pos + 1)
      end
    end
  in
  leaf_loop lf0 pos0

(* Single pass: the leaf chain yields entries in ascending (key, rid) order
   already, so build the result front-to-back instead of accumulating a
   reversed list and flipping it. *)
let search t ~key =
  let rec collect (lf : leaf) pos =
    if pos >= lf.n then
      if lf.next < 0 then []
      else
        match read_node t lf.next with
        | Leaf lf' -> collect lf' 0
        | Internal _ -> failwith "Btree: leaf chain reaches internal node"
    else begin
      let e = lf.entries.(pos) in
      Tb_sim.Sim.charge_compare (sim t) 1;
      if e.key = key then e.rid :: collect lf (pos + 1) else []
    end
  in
  let lf, pos = descend t t.root { key; rid = Rid.nil } in
  collect lf pos

let range t ?lo ?hi f =
  let start =
    match lo with
    | Some k -> { key = k; rid = Rid.nil }
    | None -> { key = min_int; rid = Rid.nil }
  in
  let keep e = match hi with Some h -> e.key < h | None -> true in
  walk_from t start ~keep (fun e -> f e.key e.rid)

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

let internal_parts = function
  | Internal ino -> (internal_children ino, internal_seps ino)
  | Leaf _ -> failwith "Btree: expected internal node"

(* Rebalance underfull child [i] of the internal node at [index].  The
   rebalancing paths build fresh nodes out of plain-array slices — they run
   once per ~half-node's worth of deletions, so the simple code wins. *)
let fix_child t index i =
  let children, seps = internal_parts (read_node t index) in
  let child = read_node t children.(i) in
  let borrow_from_left () =
    if i = 0 then false
    else
      match (read_node t children.(i - 1), child) with
      | Leaf left, Leaf right when left.n > min_leaf ->
          let n = left.n in
          let moved = left.entries.(n - 1) in
          write_node t children.(i - 1)
            (mk_leaf ~next:left.next (Array.sub left.entries 0 (n - 1)));
          write_node t children.(i)
            (mk_leaf ~next:right.next (array_insert (leaf_entries right) 0 moved));
          let seps = Array.copy seps in
          seps.(i - 1) <- moved;
          write_node t index (mk_internal children seps);
          true
      | Internal left, Internal right when left.nk > min_internal ->
          let n = left.nk in
          (* Rotate through the parent separator. *)
          let right' =
            mk_internal
              (array_insert (internal_children right) 0 left.children.(n))
              (array_insert (internal_seps right) 0 seps.(i - 1))
          in
          let seps = Array.copy seps in
          seps.(i - 1) <- left.seps.(n - 1);
          write_node t children.(i - 1)
            (mk_internal
               (Array.sub left.children 0 n)
               (Array.sub left.seps 0 (n - 1)));
          write_node t children.(i) right';
          write_node t index (mk_internal children seps);
          true
      | _ -> false
  in
  let borrow_from_right () =
    if i >= Array.length children - 1 then false
    else
      match (child, read_node t children.(i + 1)) with
      | Leaf left, Leaf right when right.n > min_leaf ->
          let moved = right.entries.(0) in
          write_node t children.(i)
            (mk_leaf ~next:left.next (array_insert (leaf_entries left) left.n moved));
          write_node t
            children.(i + 1)
            (mk_leaf ~next:right.next (array_remove (leaf_entries right) 0));
          let seps = Array.copy seps in
          seps.(i) <- right.entries.(1);
          write_node t index (mk_internal children seps);
          true
      | Internal left, Internal right when right.nk > min_internal ->
          let left' =
            mk_internal
              (array_insert (internal_children left) (left.nk + 1) right.children.(0))
              (array_insert (internal_seps left) left.nk seps.(i))
          in
          let seps = Array.copy seps in
          seps.(i) <- right.seps.(0);
          write_node t children.(i) left';
          write_node t
            children.(i + 1)
            (mk_internal
               (array_remove (internal_children right) 0)
               (array_remove (internal_seps right) 0));
          write_node t index (mk_internal children seps);
          true
      | _ -> false
  in
  (* Merge child [l] with child [l+1]. *)
  let merge l =
    (match (read_node t children.(l), read_node t children.(l + 1)) with
    | Leaf left, Leaf right ->
        write_node t children.(l)
          (mk_leaf ~next:right.next
             (Array.append (leaf_entries left) (leaf_entries right)))
    | Internal left, Internal right ->
        write_node t children.(l)
          (mk_internal
             (Array.append (internal_children left) (internal_children right))
             (Array.concat [ internal_seps left; [| seps.(l) |]; internal_seps right ]))
    | _ -> failwith "Btree: sibling arity mismatch");
    write_node t index
      (mk_internal (array_remove children (l + 1)) (array_remove seps l))
  in
  if not (borrow_from_left () || borrow_from_right ()) then
    if i > 0 then merge (i - 1) else merge i

let underfull = function
  | Leaf lf -> lf.n < min_leaf
  | Internal ino -> ino.nk < min_internal

(* Returns (found, now_underfull). *)
let rec delete_rec t index e =
  match read_node t index with
  | Leaf lf ->
      let pos = lower_bound t lf.entries lf.n e in
      if pos < lf.n && cmp_entry lf.entries.(pos) e = 0 then begin
        leaf_remove_inplace t index lf pos;
        (true, lf.n < min_leaf)
      end
      else (false, false)
  | Internal ino ->
      let i = upper_bound t ino.seps ino.nk e in
      let found, under = delete_rec t ino.children.(i) e in
      if found && under then begin
        fix_child t index i;
        (true, underfull (read_node t index))
      end
      else (found, false)

let delete t ~key ~rid =
  let found, _ = delete_rec t t.root { key; rid } in
  if found then begin
    t.entries <- t.entries - 1;
    (* Height shrink: an internal root with a single child is redundant. *)
    match read_node t t.root with
    | Internal ino when ino.nk = 0 -> t.root <- ino.children.(0)
    | Internal _ | Leaf _ -> ()
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
    (* Placeholders until the first [refresh]; [live] gates their use. *)
    let bleaf = ref (new_leaf ~next:(-1)) in
    let bpage = ref (Page_layout.create ~size:64) in
    let boff = ref 0 in
    let bcache = ref { ver = -1; node = Leaf !bleaf } in
    (* Appends mutate only the cached node; the page bytes lag behind until
       [close] patches them in one pass.  [synced] counts the leaf entries
       the page already reflects.  Nothing can observe the stale bytes in
       between: the cache serves reads (the version is untouched), no flush
       runs inside [bulk_add], and [close] runs before every real insert —
       whose split path is the only writer that assumes current bytes —
       and before returning. *)
    let synced = ref 0 in
    let bdirty = ref false in
    let close () =
      let lf = !bleaf in
      if !live && lf.n > !synced then begin
        let page = !bpage and off = !boff in
        let b = Page_layout.buffer page in
        for i = !synced to lf.n - 1 do
          put_entry b (off + leaf_base + (entry_bytes * i)) lf.entries.(i)
        done;
        Bytes.set_uint16_le b (off + 5) lf.n;
        Page_layout.record_modified page;
        !bcache.ver <- Page_layout.version page;
        synced := lf.n
      end
    in
    let refresh () =
      live := true;
      let rec go index acc =
        let pid = Tb_storage.Page_id.make ~file:t.file ~index in
        match Tb_storage.Cache_stack.peek t.stack pid with
        | None -> live := false
        | Some page -> (
            let c = cached_for t index page in
            match c.node with
            | Internal ino -> go ino.children.(ino.nk) (tbl.(ino.nk) :: acc)
            | Leaf lf ->
                spine := Array.of_list (List.rev acc);
                bleaf := lf;
                bpage := page;
                boff := Page_layout.record_offset page 0;
                bcache := c;
                synced := lf.n;
                bdirty := Page_layout.dirty page)
      in
      go t.root []
    in
    let slow key rid =
      close ();
      insert t ~key ~rid;
      refresh ()
    in
    for i = 0 to n - 1 do
      let key, rid = Array.unsafe_get run i in
      let lf = !bleaf in
      if (not !live) || lf.n = 0 || lf.n >= leaf_cap then slow key rid
      else begin
        let last = Array.unsafe_get lf.entries (lf.n - 1) in
        let cls =
          if key > last.key then 1
          else if key < last.key then -1
          else Rid.compare rid last.rid
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
            cmps (lb_count_last lf.n)
          else begin
            cmps (Array.unsafe_get tbl lf.n);
            hit ();
            (* Idempotent while no flush can intervene, so set once per
               refreshed leaf instead of once per append. *)
            if not !bdirty then begin
              Page_layout.set_dirty !bpage true;
              bdirty := true
            end;
            Array.unsafe_set lf.entries lf.n { key; rid };
            lf.n <- lf.n + 1;
            t.entries <- t.entries + 1
          end
        end
      end
    done;
    close ()
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
  let rec check index lo hi =
    match read_node t index with
    | Leaf lf ->
        for i = 0 to lf.n - 1 do
          let e = lf.entries.(i) in
          (match lo with
          | Some l when cmp_entry e l < 0 -> failwith "btree: entry below bound"
          | _ -> ());
          (match hi with
          | Some h when cmp_entry e h >= 0 -> failwith "btree: entry above bound"
          | _ -> ());
          if i > 0 && cmp_entry lf.entries.(i - 1) e >= 0 then
            failwith "btree: leaf out of order"
        done
    | Internal ino ->
        for i = 1 to ino.nk - 1 do
          if cmp_entry ino.seps.(i - 1) ino.seps.(i) >= 0 then
            failwith "btree: separators out of order"
        done;
        for i = 0 to ino.nk do
          let lo' = if i = 0 then lo else Some ino.seps.(i - 1) in
          let hi' = if i = ino.nk then hi else Some ino.seps.(i) in
          check ino.children.(i) lo' hi'
        done
  in
  (* Occupancy: every non-root node is at least half full. *)
  let rec occupancy index =
    match read_node t index with
    | Leaf lf ->
        if index <> t.root && lf.n < min_leaf then failwith "btree: underfull leaf"
    | Internal ino ->
        if index <> t.root && ino.nk < min_internal then
          failwith "btree: underfull internal node"
        else
          for i = 0 to ino.nk do
            occupancy ino.children.(i)
          done
  in
  occupancy t.root;
  check t.root None None;
  (* Every entry is reachable through the leaf chain. *)
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  if !n <> t.entries then failwith "btree: entry count mismatch"

(* Checkpoint support: the tree's volatile state is the root index and the
   entry count; everything else lives on pages (recovered by the log) or in
   the decoded-node cache (rebuilt on demand, and cleared on restore because
   restored page bytes must not be shadowed by stale decodes). *)

type state = { st_root : int; st_entries : int }

let checkpoint t = { st_root = t.root; st_entries = t.entries }

let restore t s =
  t.root <- s.st_root;
  t.entries <- s.st_entries;
  Int_table.reset t.cache

let drop_cache t = Int_table.reset t.cache
