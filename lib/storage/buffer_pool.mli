(** A fixed-capacity LRU pool of pages.

    Used twice per database: once as the server cache (4 MB by default) and
    once as the client cache (32 MB in the paper's tuned configuration) —
    see {!Cache_stack}.  The pool itself is policy-free bookkeeping: lookups
    refresh recency, insertions report the victim so the caller can charge
    the write-back. *)

type t

(** [create ~capacity_pages] — capacity must be positive. *)
val create : capacity_pages:int -> t

val capacity : t -> int
val size : t -> int

(** [find t id] returns the cached page and marks it most recently used.
    Raises [Not_found] when [id] is not cached; a hit allocates nothing. *)
val find : t -> Page_id.t -> Page_layout.t

val mem : t -> Page_id.t -> bool

(** [peek t id] is the cached page without refreshing recency — a pure probe
    that cannot perturb eviction order. *)
val peek : t -> Page_id.t -> Page_layout.t option

(** [add t id page] caches [page] and tells whether the pool was full: then
    the least recently used entry was evicted, and {!victim_id} and
    {!victim} name it until the next eviction or [clear].  Re-adding a present
    id refreshes recency and returns [false].  An evicting [add] recycles
    the victim's node, so it allocates nothing unless the page lies beyond
    its file's index, which then grows. *)
val add : t -> Page_id.t -> Page_layout.t -> bool

(** The id and page the last evicting [add] evicted. *)
val victim_id : t -> Page_id.t

val victim : t -> Page_layout.t

(** [remove t id] drops an entry if present. *)
val remove : t -> Page_id.t -> unit

(** [iter t f] visits every cached entry, least recently used first. *)
val iter : t -> (Page_id.t -> Page_layout.t -> unit) -> unit

(** Drop everything (server shutdown between cold runs).  The index keeps
    its size, so refilling the pool allocates no index cell. *)
val clear : t -> unit

(** [forget_file t file] drops the index of a file that is gone (a
    released scratch file).  Raises [Invalid_argument] while a page of it
    is cached. *)
val forget_file : t -> int -> unit
