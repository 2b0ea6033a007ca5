(** The simulated disk: a set of files, each an extendable array of durable
    page images.

    The disk is the authoritative store.  Each page carries, out of band, the
    LSN of the write that produced it and a checksum of the image as written
    (a real layout would carve the two words from the page_fill slack; we
    keep them outside the page bytes so record capacities — and with them
    every golden-gated simulated count — are unchanged).  Working
    {!Page_layout.t} objects live only in the buffer pools: {!load_page}
    materializes one, {!persist} writes one back.

    The disk charges nothing by itself — I/O costs are charged by the buffer
    layer ({!Cache_stack}) when pages actually cross the disk/server-cache
    boundary, mirroring how the paper counts [D2SCreadpages]. *)

type t

val create : Tb_sim.Sim.t -> t

(** Page size in bytes (from the cost model; 4K in the paper). *)
val page_size : t -> int

(** [new_file t ~name] allocates an empty file and returns its id. *)
val new_file : t -> name:string -> int

val file_count : t -> int

(** Number of pages currently allocated to a file. *)
val page_count : t -> int -> int

(** [append_page t ~file] allocates a fresh (empty, checksummed) page at the
    end of [file] and returns its index.  File allocation metadata is
    durable immediately, like a file system with synchronous metadata;
    recovery reclaims a loser's allocations by truncating back to the
    checkpointed counts. *)
val append_page : t -> file:int -> int

(** [load_page t pid] is a working copy of the durable image.  Raises
    [Invalid_argument] if the page does not exist.  As a host-level
    optimisation the disk memoizes the last working object per page (set
    by {!persist} and [load_page] itself) and hands it back iff it is not
    dirty: every page mutator sets the dirty bit and only a completed
    write to disk clears it, so a clean object's bytes equal its image.
    {!restore_image} and {!persist_torn} change the image and drop the
    memo.  Dropping the buffer pools without a flush (abort, crash)
    therefore re-reads only the pages that were dirtied. *)
val load_page : t -> Page_id.t -> Page_layout.t

(** [persist t pid page] makes the working bytes durable and refreshes the
    page's LSN and checksum.  It copies only [page]'s dirty blocks
    ({!Page_layout.dirty_blocks}) and moves the checksum by their old and
    new terms, so [page] must be the current working copy of [pid]: read
    from its image by {!load_page} or last written to it, with every
    change since covered by its dirty blocks. *)
val persist : t -> Page_id.t -> Page_layout.t -> unit

(** [persist_torn t pid page] models a write interrupted by a crash: only
    the first half-page (the half that would carry the checksum word)
    reaches the medium, leaving an image whose checksum does not match —
    unless the tear happened to change nothing. *)
val persist_torn : t -> Page_id.t -> Page_layout.t -> unit

(** [restore_image t pid image ~lsn] overwrites the durable image from a
    log image (recovery's redo/undo primitive). *)
val restore_image : t -> Page_id.t -> Bytes.t -> lsn:int -> unit

(** [image_equal t pid image] is whether the durable image of [pid] equals
    [image] byte for byte (recovery's undo/redo test), without copying it. *)
val image_equal : t -> Page_id.t -> Bytes.t -> bool

(** [copy_image t pid dst] copies the durable image of [pid] into [dst]
    (one page size) and returns the image's LSN: the WAL's before-image of
    a page about to be overwritten. *)
val copy_image : t -> Page_id.t -> Bytes.t -> int

(** [checksum image] is the page checksum {!verify} recomputes: a sum of
    position-weighted terms of the image's words that folds all 64 bits
    of each, so any single flipped bit changes it.  {!persist} keeps the
    stored one up to date block by block. *)
val checksum : Bytes.t -> int

(** [verify t] recomputes every page checksum over the whole image and
    returns the mismatching (torn) pages. *)
val verify : t -> Page_id.t list

(** [truncate_file t ~file ~pages] drops pages beyond [pages] (recovery of a
    loser's appends). *)
val truncate_file : t -> file:int -> pages:int -> unit

(** [truncate_files t ~keep] drops files with id >= [keep] (recovery of a
    loser's file creations; ids are allocation-ordered). *)
val truncate_files : t -> keep:int -> unit

(** Per-file page counts, indexed by file id (checkpoint capture). *)
val page_counts : t -> int array

(** Total pages across all files (the "buy big!" arithmetic of §3.1). *)
val total_pages : t -> int

(** Hex digest of the durable state (file names, page counts, image bytes;
    LSNs and checksums excluded).  Equal digests mean a restart would
    materialize identical databases — the recovery oracle. *)
val durable_digest : t -> string
