(* Intrusive doubly-linked LRU over a direct-mapped index.  A circular
   sentinel node replaces the old [node option] head/tail: unlink and
   push-tail are straight pointer swaps with no option boxing, and when the
   pool is full the evicted node is recycled for the incoming page, so the
   steady state allocates nothing per touch.  [sentinel.next] is the least
   recently used entry, [sentinel.prev] the most recent.

   The index is an array per file, indexed by page number, holding each
   cached page's node and the sentinel where the page is absent: a lookup
   is two loads and a miss writes one cell, where a hash table allocated a
   bucket per insert.  It grows to the highest page cached and is kept
   across [clear], which only resets the cells of the nodes it drops; a
   released scratch file's array goes with it ([forget_file]). *)

type node = {
  mutable id : Page_id.t;
  mutable page : Page_layout.t;
  mutable prev : node;
  mutable next : node;
}

type t = {
  capacity : int;
  mutable index : node array array; (* by file id, then page index *)
  mutable size : int;
  sentinel : node;
  (* The entry the last full [add] evicted, reported in place so that an
     eviction boxes nothing; the sentinel's page when there is none. *)
  mutable victim_id : Page_id.t;
  mutable victim : Page_layout.t;
}

let create ~capacity_pages =
  if capacity_pages <= 0 then invalid_arg "Buffer_pool.create: capacity";
  let rec sentinel =
    {
      id = Page_id.make ~file:0 ~index:0;
      page = Page_layout.create ~size:64;
      prev = sentinel;
      next = sentinel;
    }
  in
  {
    capacity = capacity_pages;
    index = [||];
    size = 0;
    sentinel;
    victim_id = sentinel.id;
    victim = sentinel.page;
  }

(* The node cached under [id], or the sentinel. *)
let lookup t (id : Page_id.t) =
  let file = Page_id.file id and i = Page_id.index id in
  if file < Array.length t.index then begin
    let pages = t.index.(file) in
    if i < Array.length pages then pages.(i) else t.sentinel
  end
  else t.sentinel

(* Point [id]'s cell at [node], growing the index (doubling) to reach it. *)
let set t (id : Page_id.t) node =
  let file = Page_id.file id and i = Page_id.index id in
  let n = Array.length t.index in
  if file >= n then begin
    let grown = Array.make (Int.max (file + 1) (2 * n)) [||] in
    Array.blit t.index 0 grown 0 n;
    t.index <- grown
  end;
  let pages = t.index.(file) in
  let m = Array.length pages in
  if i < m then pages.(i) <- node
  else begin
    let grown = Array.make (Int.max (i + 1) (Int.max 64 (2 * m))) t.sentinel in
    Array.blit pages 0 grown 0 m;
    grown.(i) <- node;
    t.index.(file) <- grown
  end

let capacity t = t.capacity
let size t = t.size

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

(* Insert just before the sentinel: the most-recently-used position. *)
let push_tail t node =
  let s = t.sentinel in
  node.prev <- s.prev;
  node.next <- s;
  s.prev.next <- node;
  s.prev <- node

let touch t node =
  unlink node;
  push_tail t node

let find t id =
  let node = lookup t id in
  if node == t.sentinel then raise Not_found;
  touch t node;
  node.page

let mem t id = lookup t id != t.sentinel

(* Like [find] but leaves recency untouched: a host-level probe for callers
   that must not perturb the pools' eviction order (the B+-tree bulk build,
   the WAL's after-image capture). *)
let peek t id =
  let node = lookup t id in
  if node == t.sentinel then None else Some node.page

let victim_id t = t.victim_id
let victim t = t.victim

let add t id page =
  let node = lookup t id in
  if node != t.sentinel then begin
    (* Re-adding refreshes recency only; the cached page stays. *)
    ignore page;
    touch t node;
    false
  end
  else if t.size >= t.capacity then begin
    (* Full: evict the LRU entry and recycle its node for the newcomer. *)
    let lru = t.sentinel.next in
    t.victim_id <- lru.id;
    t.victim <- lru.page;
    set t lru.id t.sentinel;
    lru.id <- id;
    lru.page <- page;
    set t id lru;
    touch t lru;
    true
  end
  else begin
    let node = { id; page; prev = t.sentinel; next = t.sentinel } in
    set t id node;
    t.size <- t.size + 1;
    push_tail t node;
    false
  end

let remove t id =
  let node = lookup t id in
  if node != t.sentinel then begin
    unlink node;
    set t id t.sentinel;
    t.size <- t.size - 1
  end

let iter t f =
  let s = t.sentinel in
  let rec go node =
    if node != s then begin
      f node.id node.page;
      go node.next
    end
  in
  go s.next

let forget_file t file =
  if file < Array.length t.index then begin
    if Array.exists (fun node -> node != t.sentinel) t.index.(file) then
      invalid_arg "Buffer_pool.forget_file: a page of the file is cached";
    t.index.(file) <- [||]
  end

let clear t =
  let s = t.sentinel in
  let rec go node =
    if node != s then begin
      set t node.id s;
      go node.next
    end
  in
  go s.next;
  t.size <- 0;
  t.victim <- s.page;
  s.prev <- s;
  s.next <- s
