(** Page-resident B+-trees over integer keys.

    O2 indexes arbitrary collections and stores object identifiers in the
    leaves ("both indexes are clustered and store only object identifiers in
    their leaves" — Section 5).  Nodes occupy one page each in a dedicated
    index file and are fetched through the same two-tier cache as data
    pages, so an index scan really does "read all the collection pages but
    also those of the index structure" (Section 4.2).

    Entries are (key, Rid) pairs ordered lexicographically, which makes
    duplicates unique internally; a key search is a range scan over all Rids
    carrying that key.  Whether the tree is *physically* clustered is not a
    flag but an emergent property of how key order correlates with Rid
    order — {!clustering_factor} measures it. *)

type t

(** [create stack ~name] builds an empty tree in a fresh file. *)
val create : Tb_storage.Cache_stack.t -> name:string -> t

val entry_count : t -> int

(** Pages allocated to the tree's file. *)
val page_count : t -> int

(** [insert t ~key ~rid] adds an entry; duplicate (key, rid) pairs are
    ignored. *)
val insert : t -> key:int -> rid:Tb_storage.Rid.t -> unit

(** [bulk_add t run] inserts every (key, rid) pair of [run] in sorted
    (key, rid) order — exactly equivalent, in both resulting tree and
    simulated charges, to sorting [run] and looping {!insert} over it.
    On an empty tree the host work is done by an append-only fast path
    along the remembered rightmost spine (the charges it replays are the
    per-entry descent's), so building from a sorted run costs O(n) host
    time instead of O(n · node size). *)
val bulk_add : t -> (int * Tb_storage.Rid.t) array -> unit

(** [bulk_build stack ~name run] is {!create} followed by {!bulk_add}. *)
val bulk_build :
  Tb_storage.Cache_stack.t -> name:string -> (int * Tb_storage.Rid.t) array -> t

(** [delete t ~key ~rid] removes the exact entry if present; returns whether
    it was found.  Underfull nodes borrow from or merge with a sibling, and
    the tree height shrinks when the root empties. *)
val delete : t -> key:int -> rid:Tb_storage.Rid.t -> bool

(** [search t ~key] is every Rid stored under [key], in ascending Rid
    order (entries live in the leaves in (key, rid) order and the walk
    collects them front-to-back in a single pass). *)
val search : t -> key:int -> Tb_storage.Rid.t list

(** [range t ?lo ?hi f] visits entries with [lo <= key < hi] in key order
    ([lo] unbounded-below when omitted, [hi] unbounded-above). *)
val range : t -> ?lo:int -> ?hi:int -> (int -> Tb_storage.Rid.t -> unit) -> unit

(** Visit every entry in key order. *)
val iter : t -> (int -> Tb_storage.Rid.t -> unit) -> unit

(** Fraction of adjacent leaf entries whose Rids are in physical order —
    1.0 for a perfectly clustered index, ~0 for a random key.  Walks the
    leaves. *)
val clustering_factor : t -> float

(** Smallest and largest key, or [None] when empty. Walks to the edges. *)
val key_bounds : t -> (int * int) option

(** Structural check for tests: ordering within and across nodes, separator
    consistency, half-full occupancy of every non-root node, reachability of
    every entry via the leaf chain.  Raises [Failure] on violation. *)
val check_invariants : t -> unit

(** {2 Checkpoint support} *)

(** The tree's volatile state: root page index and entry count.  Everything
    else is page bytes, which the log recovers; the tree keeps no decoded
    copy of any node that could go stale. *)
type state

val checkpoint : t -> state

(** [restore t s] reinstates a checkpointed state.  Nodes are read from
    their pages on every visit, so the restored page bytes are all the tree
    needs. *)
val restore : t -> state -> unit
