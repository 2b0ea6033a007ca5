(** The two-tier O2 cache architecture: client cache over server cache over
    disk.

    A page touch goes client → (RPC) → server → (I/O) → disk, charging the
    simulated clock at each boundary it crosses; this is how the paper's
    [RPCsnumber], [SC2CCreadpages] and [D2SCreadpages] statistics arise.
    Section 3.2's observation that "the number of IOs depends on the largest
    cache size, independently of its function" is an emergent property of
    this stack.

    Dirty pages written by the client are shipped back on eviction (one RPC)
    and reach the disk when the server in turn evicts them, or at [flush].

    [clear] models the server shutdown the authors perform between runs so
    every query starts cold. *)

type t

val create :
  Tb_sim.Sim.t -> Disk.t -> server_pages:int -> client_pages:int -> t

(** The client cache's capacity, in pages. *)
val client_capacity : t -> int

(** [fetch t id] brings the page to the client cache (charging whatever
    boundaries it crosses) and returns it. *)
val fetch : t -> Page_id.t -> Page_layout.t

(** Like [fetch], and makes the page writable: it is {!note_write} after
    the fetch.  Every call is reported to the write observer (after the
    fetch, before the caller can mutate), which is how the WAL learns which
    pages a transaction touches and tracks their working objects. *)
val fetch_for_write : t -> Page_id.t -> Page_layout.t

(** [note_write t id page] is what {!fetch_for_write} does after its
    fetch, for a client-cached [page] the caller fetched and charged
    itself (the B+-tree's bulk-build fast path): detach it from its
    durable image ({!Disk.detach}), mark it dirty and report it to the
    write observer.  Charges nothing itself.  [note_write] and
    [fetch_for_write] are the only ways to make a page writable: a page
    from [fetch] or [peek] shares its durable image until then, and every
    {!Page_layout} mutator refuses it. *)
val note_write : t -> Page_id.t -> Page_layout.t -> unit

(** [peek t id] is the client-cached working page, if any: [Some] iff a
    [fetch] would be a client-cache hit.  Charges nothing and does not
    refresh recency — a host-level probe for callers that replay hit
    charges themselves (the B+-tree bulk build). *)
val peek : t -> Page_id.t -> Page_layout.t option

(** Push every dirty page down to disk, charging writes. *)
val flush : t -> unit

(** Drop both caches without flushing — dirty working pages are lost.  This
    is what a crash does to the volatile state, and what abort does on
    purpose (the durable images were or will be put right by the log).
    Then releases the pages of dead scratch files ({!Disk.release_dead}). *)
val drop : t -> unit

(** [flush] then [drop]: cold restart. *)
val clear : t -> unit

(** {2 Logging and fault hooks} *)

(** [set_write_observer t obs] installs the callback run on every
    [fetch_for_write] (the WAL's touch record); [None] removes it. *)
val set_write_observer : t -> (Page_id.t -> Page_layout.t -> unit) option -> unit

(** [set_persist_observer t obs] installs the callback run before every
    write of a dirty page to disk, ahead of the fault layer's verdict, while
    the durable image still holds its old bytes (the WAL's before-image
    capture on a steal); [None] removes it. *)
val set_persist_observer : t -> (Page_id.t -> unit) option -> unit

(** [set_fault t f] installs a fault-injection layer under the stack: every
    page persist ticks its crash countdown, every physical read rolls its
    transient-error dice.  [None] (the default) is the infallible disk. *)
val set_fault : t -> Fault.t option -> unit

(** The underlying disk (for file allocation). *)
val disk : t -> Disk.t

val sim : t -> Tb_sim.Sim.t
