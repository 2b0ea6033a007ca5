(* Intrusive doubly-linked LRU threaded through a hash table.  A circular
   sentinel node replaces the old [node option] head/tail: unlink and
   push-tail are straight pointer swaps with no option boxing, and when the
   pool is full the evicted node is recycled for the incoming page, so the
   steady state allocates nothing per touch.  [sentinel.next] is the least
   recently used entry, [sentinel.prev] the most recent. *)

type node = {
  mutable id : Page_id.t;
  mutable page : Page_layout.t;
  mutable prev : node;
  mutable next : node;
}

type t = {
  capacity : int;
  table : node Int_table.t; (* keyed by the packed Page_id *)
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
    table = Int_table.create (min 65536 (capacity_pages + 1));
    sentinel;
    victim_id = sentinel.id;
    victim = sentinel.page;
  }

let capacity t = t.capacity
let size t = Int_table.length t.table

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

let find t (id : Page_id.t) =
  let node = Int_table.find t.table (id :> int) in
  touch t node;
  node.page

let mem t (id : Page_id.t) = Int_table.mem t.table (id :> int)

(* Like [find] but leaves recency untouched: a host-level probe for callers
   that must not perturb the pools' eviction order (the B+-tree bulk build,
   the WAL's after-image capture). *)
let peek t (id : Page_id.t) =
  match Int_table.find_opt t.table (id :> int) with
  | None -> None
  | Some node -> Some node.page

let victim_id t = t.victim_id
let victim t = t.victim

let add t (id : Page_id.t) page =
  match Int_table.find_opt t.table (id :> int) with
  | Some node ->
      (* Re-adding refreshes recency only; the cached page stays. *)
      ignore page;
      touch t node;
      false
  | None ->
      if Int_table.length t.table >= t.capacity then begin
        (* Full: evict the LRU entry and recycle its node for the newcomer. *)
        let lru = t.sentinel.next in
        t.victim_id <- lru.id;
        t.victim <- lru.page;
        Int_table.remove t.table (lru.id :> int);
        lru.id <- id;
        lru.page <- page;
        Int_table.replace t.table (id :> int) lru;
        touch t lru;
        true
      end
      else begin
        let node = { id; page; prev = t.sentinel; next = t.sentinel } in
        Int_table.replace t.table (id :> int) node;
        push_tail t node;
        false
      end

let remove t (id : Page_id.t) =
  match Int_table.find_opt t.table (id :> int) with
  | None -> ()
  | Some node ->
      unlink node;
      Int_table.remove t.table (id :> int)

let iter t f =
  let s = t.sentinel in
  let rec go node =
    if node != s then begin
      f node.id node.page;
      go node.next
    end
  in
  go s.next

let clear t =
  t.victim <- t.sentinel.page;
  Int_table.reset t.table;
  t.sentinel.prev <- t.sentinel;
  t.sentinel.next <- t.sentinel
