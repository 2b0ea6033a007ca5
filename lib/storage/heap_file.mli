(** Heap files: variable-length records addressed by {!Rid}.

    A heap file appends records to its tail page up to the fill target (O2
    "always leaves some extra space to deal with growing strings or
    collections" — Section 2), so insertion order is physical order.  That
    single property is what the three clustering strategies of Figure 2
    exploit: the loader controls placement purely by choosing the order in
    which it creates objects.

    Records that outgrow their page on update are relocated and a forwarding
    stub is left at the original Rid, preserving physical identifiers at the
    cost of an extra hop — the price of updates "resulting in size increase"
    the paper warns about in Section 5.2. *)

type t

(** [create stack ~name] allocates a fresh file on [stack]'s disk. *)
val create : Cache_stack.t -> name:string -> t

(** [create_temp stack] allocates a scratch file (spill partitions and the
    like) whose name derives from the disk's current file count, so no
    caller-side counter — and no process-global state — is needed. *)
val create_temp : Cache_stack.t -> t

val file_id : t -> int
val page_count : t -> int

(** Live records (excluding forwarding stubs). *)
val record_count : t -> int

(** [insert t body] appends a record, returns its Rid. *)
val insert : t -> bytes -> Rid.t

(** Bytes a record buffer leaves free in front of the body it hands to
    {!insert_body} or {!update}: the record's framing is written there,
    so the body is copied once, into the page. *)
val frame_room : int

(** [insert_body t buf ~len] is {!insert} of the [len]-byte body at
    [buf.[frame_room]]; it overwrites [buf]'s first [frame_room] bytes.
    Returns the page the record went to; {!located_rid} is its Rid, and
    {!located_slot} and {!located_pos} place the body on the page. *)
val insert_body : t -> bytes -> len:int -> Page_layout.t

(** The Rid of the record the last {!insert_body} created. *)
val located_rid : t -> Rid.t

(** [read t rid] fetches the record body, following at most one forwarding
    hop. Raises [Not_found] on a dead Rid. *)
val read : t -> Rid.t -> bytes

(** [locate t rid] resolves [rid] to the page object holding the record's
    body, following at most one forwarding hop.  Charges are identical to
    {!read} (one cache fetch per page touched); no copy is made and nothing
    is allocated on the direct path.  The rest of the answer is read back
    with {!located_slot} and {!located_pos} before the next [locate] on
    [t]. Raises [Not_found] on a dead Rid. *)
val locate : t -> Rid.t -> Page_layout.t

(** The physical slot, on the page it returned, of the body the last
    {!locate}, {!insert_body} or {!update} found or wrote (it differs from
    [rid.slot] for relocated bodies). *)
val located_slot : t -> int

(** The offset of that body in its page's buffer.  It is valid until the
    page next compacts; {!Page_layout.record_offset} on {!located_slot}
    re-derives it. *)
val located_pos : t -> int

(** [update t rid buf ~len] rewrites the record with the [len]-byte body
    at [buf.[frame_room]], overwriting [buf]'s first [frame_room] bytes;
    relocates and leaves a forwarding stub when the body no longer fits
    near its page.  Returns the page that now holds the body, which
    {!located_slot} and {!located_pos} place on it; noting that charges
    nothing. *)
val update : t -> Rid.t -> bytes -> len:int -> Page_layout.t

(** [delete t rid] removes the record (and its relocated body if any). *)
val delete : t -> Rid.t -> unit

(** [scan t f] visits every live record in physical order — the sequential
    access path. Forwarded bodies are visited at their *original* Rid. *)
val scan : t -> (Rid.t -> bytes -> unit) -> unit

(** [iter_page_spans t ~page f] visits the live records of one page
    without copying: [f rid buf pos len] sees each body in place in the
    page buffer, in slot order, forwarded bodies at their original Rid;
    [f] must not mutate the buffer. *)
val iter_page_spans :
  t -> page:int -> (Rid.t -> bytes -> int -> int -> unit) -> unit

(** {2 Checkpoint support}

    The tail (the page index currently receiving inserts; [-1] when empty)
    is the only volatile state a heap file carries; recovery snapshots and
    restores it alongside the catalog. *)

val tail : t -> int
val set_tail : t -> int -> unit
