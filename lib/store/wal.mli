(** ARIES-lite write-ahead log for the serial transaction model.

    O2's EWS logs before- and after-images of modified objects (Section 2:
    the "log file" the benchmark pays for in transaction mode).  This module
    makes that log real enough to recover from: it consolidates the images
    into one physical record per touched page (before-image when an
    uncommitted write first reaches the page's durable image, after-image
    at commit force), while the {e cost} of logging is
    still charged per logical object write — two images' worth of bytes, one
    simulated disk write per filled log page — exactly the arithmetic the
    pre-WAL accounting used, so fault-free runs are bit-identical.

    Transactions are serial, and the log is checkpointed (truncated) after
    every commit, so at any crash the log holds at most one transaction:
    a winner if its commit record became durable, else a loser. *)

type t

val create : Tb_sim.Sim.t -> t

(** Arm/disarm fault injection for log-page writes ([None] disarms). *)
val set_fault : t -> Tb_storage.Fault.t option -> unit

(** [note_touch t pid page] records a write fetch of [pid].  First touch
    per checkpoint interval appends the page's record and stamps the page
    with a fresh LSN; every touch re-points the log at the current working
    object.  A first-touched page must be clean, so that its durable image
    still holds the pre-transaction bytes.  Installed as the
    {!Tb_storage.Cache_stack} write observer. *)
val note_touch : t -> Tb_storage.Page_id.t -> Tb_storage.Page_layout.t -> unit

(** [note_persist t disk pid] runs before [pid] is written to disk.  The
    first write of a touched page before the commit record is durable (a
    steal) copies the durable image it will overwrite as the page's
    before-image, with that image's LSN, into a {!Tb_storage.Disk.take_spare}
    buffer.  Installed as the
    {!Tb_storage.Cache_stack} persist observer. *)
val note_persist : t -> Tb_storage.Disk.t -> Tb_storage.Page_id.t -> unit

(** [logical_write t ~bytes] appends one logical write record ([bytes] of
    before- plus [bytes] of after-image) and charges one simulated disk
    write per log page filled.  May raise {!Tb_storage.Fault.Crash}. *)
val logical_write : t -> bytes:int -> unit

(** Log bytes buffered below one page (the unforced tail). *)
val pending_bytes : t -> int

(** Force the commit record: flush the log tail (one write if non-empty),
    capture after-images (under an armed fault layer), and mark the commit
    durable.  May raise {!Tb_storage.Fault.Crash} — in which case the
    commit is {e not} durable and recovery sees a loser. *)
val force : t -> unit

(** Whether the current interval's commit record reached the log. *)
val commit_durable : t -> bool

(** Truncate the log after a completed commit.  The retired records'
    before-image buffers return to the disk's spares
    ({!Tb_storage.Disk.give_spare}): the next steals and detaches refill
    them instead of allocating page images. *)
val checkpoint : t -> Tb_storage.Disk.t -> unit

(** Drop records and tail without forcing: transaction-off commits and
    abort (after {!undo}).  Returns buffers like {!checkpoint}. *)
val discard : t -> Tb_storage.Disk.t -> unit

val touched_pages : t -> int

(** Touched pages of the current interval that were stolen (written to
    disk before the commit record), and so hold a before-image. *)
val stolen_pages : t -> int

(** [undo t disk] restores the stolen pages' diverged durable images to
    their before-images, newest touch first, charging one undo write each.
    Returns the number of pages restored. *)
val undo : t -> Tb_storage.Disk.t -> int

(** [redo t disk] restores diverged durable images to their after-images,
    oldest touch first, charging one redo write each.  Returns the number
    of pages restored.  Only valid after a durable commit. *)
val redo : t -> Tb_storage.Disk.t -> int
