(** Slotted-page layout.

    Classic variable-length record page: a small header, record bodies
    growing up from the front, and a slot directory growing down from the
    back.  All metadata lives inside the page bytes, so a page is exactly
    what the simulated disk stores and the buffer pools ship around.

    Slots are stable: a record keeps its slot number for life (its Rid is a
    physical address), deletion leaves a dead slot that later insertions may
    reuse, and in-place updates that no longer fit are the caller's problem
    (heap files relocate the body and leave a forwarding stub — the price of
    O2's growable strings and collections that Section 5.2 mentions). *)

type t

(** [create ~size] is an empty page of [size] bytes. [size] must be at least
    64 and at most 65528 (offsets are 16-bit). *)
val create : size:int -> t

(** [of_bytes image] is a clean page over a copy of [image].  [lsn] seeds
    the advisory log sequence number. *)
val of_bytes : ?lsn:int -> Bytes.t -> t

(** [of_image ~lsn image] is a clean page over [image] itself, not a copy:
    {!Disk.load_page} builds its pages over the durable image.  The page is
    {!shared} until the disk detaches it. *)
val of_image : lsn:int -> Bytes.t -> t

(** {2 Sharing the durable image}

    A shared page's bytes are the disk's durable image.  Every mutator
    ([insert], [update], [delete], {!record_modified} and [set_dirty t
    true]) raises [Invalid_argument] on a shared page, so a write that
    skips {!Cache_stack.note_write} fails loudly instead of silently
    changing a durable image.  Only {!Disk} changes the flag. *)

val shared : t -> bool
val set_shared : t -> bool -> unit

(** [retire t] marks a dead page whose buffer the disk has taken back as
    its image: it becomes shared, so it refuses writes, and its {!version}
    moves, so no view of it stays valid. *)
val retire : t -> unit

(** A copy of the full page bytes (the WAL's after-image unit). *)
val snapshot : t -> Bytes.t

val size : t -> int
val dirty : t -> bool

(** [set_dirty t false] also empties the dirty-block set: the page now
    equals the durable image it was written to.  [set_dirty t true] raises
    [Invalid_argument] on a {!shared} page. *)
val set_dirty : t -> bool -> unit

(** {2 Dirty blocks}

    A page is split into at most 32 fixed-size blocks of {!block_bytes}
    bytes (128 on a 4K page; the last may be shorter).  Every mutator adds
    the blocks it wrote to a set that empties when the page goes clean, so
    a dirty page differs from the image it was last clean against only
    inside its dirty blocks.  {!Disk.persist} copies just those. *)

(** Bit [i] is set iff block [i] was written since the page was last
    clean. *)
val dirty_blocks : t -> int

(** Bytes per block, a power of two (at least 8). *)
val block_bytes : t -> int

(** Write-version counter: bumped by every mutation of the page's contents
    ([insert], [update], [delete], internal compaction, and
    {!record_modified}).  Views into a page (a packed Handle's cached body
    offset) key their validity on [(page, version)]: equal version means
    the bytes have not changed since the view was taken.  Versions are globally unique
    across page objects (one shared monotonic counter), so a page
    re-materialized from disk never revalidates a stale view. *)
val version : t -> int

(** Advisory log sequence number of the last WAL record covering this page.
    Recovery does not trust it (the B+-tree bulk path patches bytes without
    bumping it); redo/undo compare images instead.  See DESIGN.md §5. *)
val lsn : t -> int

val set_lsn : t -> int -> unit

(** Number of slot-directory entries (live or dead). *)
val slot_count : t -> int

(** Number of live records. *)
val live_count : t -> int

(** Bytes a fresh insert of length [len] would need right now, accounting
    for slot reuse; [None] when it cannot fit even after compaction. *)
val fits : t -> int -> bool

(** Free bytes available to new records after compaction (not counting the
    directory entry a brand-new slot would need). *)
val free_bytes : t -> int

(** Bytes occupied by live record bodies. *)
val live_bytes : t -> int

(** [insert t body] stores [body] and returns its slot, or [None] if the
    page is full. Compacts transparently when fragmentation is the only
    obstacle. Raises [Invalid_argument] on an empty or oversized body. *)
val insert : t -> bytes -> int option

(** [insert_sub t src ~off ~len] is [insert] of the [len] bytes of [src]
    from [off], without a copy of them. *)
val insert_sub : t -> bytes -> off:int -> len:int -> int option

(** [read t slot] is a copy of the record body.
    Raises [Not_found] for dead or out-of-range slots. *)
val read : t -> int -> bytes

(** {2 In-place record patching}

    A record owner that knows its own encoding (the B+-tree: one node per
    page) can edit record bytes directly instead of building a fresh body
    and calling [update] — an equal-length [update] copies the whole body,
    while a patch blits only the bytes that moved. *)

(** The page's backing buffer.  Writes outside a span obtained from
    [record_offset], or without a following [record_modified], corrupt the
    page. *)
val buffer : t -> Bytes.t

(** [record_offset t slot] is the offset of the live record's first byte
    within [buffer].  It is stable until a different record on the page is
    inserted, resized or deleted (those may compact the page).
    Raises [Not_found] for dead or out-of-range slots. *)
val record_offset : t -> int -> int

(** [record_modified t ~off ~len] declares that bytes [off, off + len) were
    patched through [buffer]: marks the page dirty, adds the range to its
    dirty blocks and bumps [version].  Raises [Invalid_argument] on a
    {!shared} page: the patch has already changed the durable image. *)
val record_modified : t -> off:int -> len:int -> unit

(** [delete t slot] frees the slot (idempotent on dead slots within range).
    Raises [Not_found] if out of range. *)
val delete : t -> int -> unit

(** [update t slot body] rewrites the record in place, possibly moving it
    within the page; [false] if the new body cannot fit on this page (the
    slot is left unchanged in that case).
    Raises [Not_found] for dead or out-of-range slots. *)
val update : t -> int -> bytes -> bool

(** [update_sub t slot src ~off ~len] is [update] with the [len] bytes of
    [src] from [off], without a copy of them. *)
val update_sub : t -> int -> bytes -> off:int -> len:int -> bool

(** [iter t f] applies [f slot body] to every live record in slot order. *)
val iter : t -> (int -> bytes -> unit) -> unit

(** [iter_spans t f] applies [f slot offset length] to every live record in
    slot order, without copying bodies; spans index into [buffer].  [f] must
    not mutate the page. *)
val iter_spans : t -> (int -> int -> int -> unit) -> unit

(** Internal-consistency check for tests: directory within bounds, no record
    overlap, free space arithmetic coherent. Raises [Failure] on violation. *)
val check_invariants : t -> unit
