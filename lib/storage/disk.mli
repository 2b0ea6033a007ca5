(** The simulated disk: a set of files, each an extendable array of durable
    page images.

    The disk is the authoritative store.  Each page carries, out of band, the
    LSN of the write that produced it and a checksum of the image as written
    (a real layout would carve the two words from the page_fill slack; we
    keep them outside the page bytes so record capacities — and with them
    every golden-gated simulated count — are unchanged).  Working
    {!Page_layout.t} objects live only in the buffer pools: {!load_page}
    builds one over the image itself, {!detach} gives the image a copy of
    its own before the first write, {!persist} writes one back.

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

(** [load_page t pid] is a clean working page whose buffer is the durable
    image itself ({!Page_layout.shared}), so a clean page costs one buffer.
    Raises [Invalid_argument] if the page does not exist.  The disk
    memoizes the last working object per page (set by {!persist} and
    [load_page] itself) and hands it back while it still shares the image.
    {!detach}, {!restore_image} and {!persist_torn} end the sharing.
    Dropping the buffer pools without a flush (abort, crash) therefore
    re-reads only the pages that were dirtied; such a reload takes the
    dead memo's buffer back for the image, so nothing may use a page
    object after the pools that held it were dropped. *)
val load_page : t -> Page_id.t -> Page_layout.t

(** [detach t pid page] readies a shared working page for its first write:
    the durable image gets a private copy (a recycled spare when one is
    left), and [page] keeps its buffer, so views into it stay valid.  The
    copy is the pre-write image the WAL's steal and undo rely on.  A no-op
    on a page that is not shared; raises [Invalid_argument] if [page]
    shares the image but is not [pid]'s memo.  {!Cache_stack.note_write}
    is the only caller. *)
val detach : t -> Page_id.t -> Page_layout.t -> unit

(** [persist t pid page] makes the working bytes durable and refreshes the
    page's LSN and checksum.  It copies only [page]'s dirty blocks
    ({!Page_layout.dirty_blocks}) and moves the checksum by their old and
    new terms, so [page] must be the current working copy of [pid]: read
    from its image by {!load_page} or last written to it, with every
    change since covered by its dirty blocks.  Afterwards [page] is clean
    and shares its bytes as the image; the private copy becomes a spare. *)
val persist : t -> Page_id.t -> Page_layout.t -> unit

(** [persist_torn t pid page] models a write interrupted by a crash: only
    the first half-page (the half that would carry the checksum word)
    reaches the medium, leaving an image whose checksum does not match —
    unless the tear happened to change nothing.  It never writes into a
    buffer a working page shares. *)
val persist_torn : t -> Page_id.t -> Page_layout.t -> unit

(** [restore_image t pid image ~lsn] overwrites the durable image from a
    log image (recovery's redo/undo primitive).  It never writes into a
    buffer a working page shares: a shared memo is detached first and
    goes stale. *)
val restore_image : t -> Page_id.t -> Bytes.t -> lsn:int -> unit

(** [image_equal t pid image] is whether the durable image of [pid] equals
    [image] byte for byte (recovery's undo/redo test), without copying it. *)
val image_equal : t -> Page_id.t -> Bytes.t -> bool

(** [copy_image t pid dst] copies the durable image of [pid] into [dst]
    (one page size) and returns the image's LSN: the WAL's before-image of
    a page about to be overwritten. *)
val copy_image : t -> Page_id.t -> Bytes.t -> int

(** {2 Spare buffers}

    One bounded stack of page-sized buffers that no page and no image
    holds: {!detach} copies and the WAL's steal before-images draw from it,
    {!persist}, a reload and the WAL's checkpoint give buffers back. *)

(** [take_spare t] is a page-sized buffer with unspecified contents. *)
val take_spare : t -> Bytes.t

(** [give_spare t b] returns [b] (which nothing may use afterwards); it is
    dropped if the stack is full. *)
val give_spare : t -> Bytes.t -> unit

(** [checksum image] is the page checksum {!verify} recomputes: a sum of
    position-weighted terms of the image's words that folds all 64 bits
    of each, so any single flipped bit changes it.  {!persist} keeps the
    stored one up to date block by block. *)
val checksum : Bytes.t -> int

(** [verify t] recomputes every page checksum over the whole image and
    returns the mismatching (torn) pages. *)
val verify : t -> Page_id.t list

(** [truncate_file t ~file ~pages] drops pages beyond [pages] (recovery of a
    loser's appends).  Raises [Invalid_argument] when [pages] is negative,
    or beyond the file's pages unless the file is dead. *)
val truncate_file : t -> file:int -> pages:int -> unit

(** {2 Dead scratch files}

    A spill file outlives its join only as wasted pages.  [mark_dead t
    ~file] retires it: its pages stop counting in {!durable_digest}, and
    [release_dead t] drops the pages of every dead file (they then stop
    counting in {!total_pages} too).  Only {!Cache_stack.drop} calls
    [release_dead], once no pool frame can hold such a page; nothing may
    read or write a dead file's pages after that. *)

val mark_dead : t -> file:int -> unit
val release_dead : t -> unit

(** [truncate_files t ~keep] drops files with id >= [keep] (recovery of a
    loser's file creations; ids are allocation-ordered). *)
val truncate_files : t -> keep:int -> unit

(** [memo t pid] is the page's memoized working object, if any (a probe
    for tests and the census: a shared memo is what {!load_page} hands
    back; a dirty or stale one is dead once the pools are dropped). *)
val memo : t -> Page_id.t -> Page_layout.t option

(** [is_image t pid buf] is whether [buf] is physically the page's durable
    image. *)
val is_image : t -> Page_id.t -> Bytes.t -> bool

(** Bytes held by the disk, for the memory census: durable images, memo
    buffers that do not alias their image (dirty or stale working pages),
    and spare buffers. *)
type footprint = { image_bytes : int; memo_bytes : int; spare_bytes : int }

val footprint : t -> footprint

(** Per-file page counts, indexed by file id (checkpoint capture). *)
val page_counts : t -> int array

(** Total pages across all files (the "buy big!" arithmetic of §3.1). *)
val total_pages : t -> int

(** Hex digest of the durable state (file names, page counts, image bytes;
    LSNs, checksums and dead files' pages excluded).  Equal digests mean a restart would
    materialize identical databases — the recovery oracle. *)
val durable_digest : t -> string
