(** The database façade: schema + files + objects + handles + indexes.

    One [Database.t] is one simulated O2 instance: a disk, a two-tier cache
    stack, a handle table, a transaction context and a catalog of class
    files and indexes.  The loader decides which classes share which heap
    files — that choice *is* the physical organization (class clustering,
    random, composition) of Figure 2. *)

type t

val create :
  Tb_sim.Sim.t ->
  schema:Schema.t ->
  server_pages:int ->
  client_pages:int ->
  ?handle_kind:Tb_sim.Cost_model.handle_kind ->
  ?zombie_limit:int ->
  ?txn_mode:Transaction.mode ->
  ?uncommitted_limit:int ->
  unit ->
  t

val sim : t -> Tb_sim.Sim.t
val schema : t -> Schema.t
val stack : t -> Tb_storage.Cache_stack.t
val txn : t -> Transaction.t
val handles : t -> Handle_table.t

(** The shared file where spilled collections live. *)
val collections_file : t -> Tb_storage.Heap_file.t

(** {2 Files and classes} *)

(** [new_file t ~name] allocates and registers a heap file. *)
val new_file : t -> name:string -> Tb_storage.Heap_file.t

(** [bind_class t ~cls file] declares that objects of [cls] are created in
    [file]. Several classes may share a file (random / composition
    clustering). *)
val bind_class : t -> cls:string -> Tb_storage.Heap_file.t -> unit

(** Raises [Not_found] when the class is unbound. *)
val class_file : t -> cls:string -> Tb_storage.Heap_file.t

(** {2 Objects} *)

(** [insert_object t ~cls value] creates a persistent object and returns its
    physical identifier.  Sets too large for a page are spilled to the
    collection file.  [indexed] provisions index slots in the object header
    even when no index exists yet (the documented way to avoid the
    first-index reallocation).  Raises [Invalid_argument] if [value] does
    not conform to the class. *)
val insert_object : t -> cls:string -> ?indexed:bool -> Value.t -> Tb_storage.Rid.t

(** Low-level read: header and value, bypassing the handle machinery
    (charges only the page fetches). *)
val read_object : t -> Tb_storage.Rid.t -> Obj_header.t * Value.t

(** [acquire t rid] yields the object's Handle (see {!Handle_table}). *)
val acquire : t -> Tb_storage.Rid.t -> Handle.t

val unref : t -> Handle.t -> unit

(** [get_att t h attr] reads one attribute through a Handle, charging the
    per-attribute CPU cost of Figure 8's [get_att]. *)
val get_att : t -> Handle.t -> string -> Value.t

(** [attr_slot t ~cls attr] resolves an attribute name to its schema slot
    once; the slot then feeds {!get_att_slot} on the hot path.  Raises
    [Invalid_argument] for an unknown attribute. *)
val attr_slot : t -> cls:string -> string -> int

(** [get_att_slot t h slot] is {!get_att} with the name already resolved:
    same simulated charge, attribute decoded in place off the handle's
    page bytes. *)
val get_att_slot : t -> Handle.t -> int -> Value.t

(** [get_att_mem_bytes t h slot] is [Codec.mem_bytes (get_att_slot t h
    slot)] with the same charge, read in place: the attribute is sized,
    not built. *)
val get_att_mem_bytes : t -> Handle.t -> int -> int

(** [handle_rid t h] is the Rid the Handle represents. *)
val handle_rid : t -> Handle.t -> Tb_storage.Rid.t

(** [packed_buf t h] is the page buffer holding the Handle's record, with
    {!packed_body} revalidated to the offset of its first attribute (the
    page may have compacted since the Handle was loaded, and a write to
    the record re-points its resident Handle at the new bytes).
    Charge-free; the packed execution path ({!Tb_query.Packed}) evaluates
    on these bytes. *)
val packed_buf : t -> Handle.t -> bytes

(** [packed_body t h] is the offset of the first attribute in
    {!packed_buf}'s buffer, as of the last [packed_buf t h]. *)
val packed_body : t -> Handle.t -> int

(** [handle_value t h] materializes the Handle's full value (slow path —
    tests; queries should use {!get_att_slot}). *)
val handle_value : t -> Handle.t -> Value.t

val class_name : t -> Handle.t -> string

(** [update_object t rid value] rewrites the object in place and
    maintains its indexes; a resident Handle of [rid] reads the new value.
    Sets too large for a page are spilled.  Raises [Invalid_argument],
    after the read fetch and before any change, if [value] does not
    conform to the object's class or gives an indexed attribute no
    integer. *)
val update_object : t -> Tb_storage.Rid.t -> Value.t -> unit

(** [delete_object t rid] removes the object and its index entries. *)
val delete_object : t -> Tb_storage.Rid.t -> unit

(** {2 Collections} *)

(** [iter_set t v f] iterates an inline [Set]/[List] or a spilled [Big_set]
    uniformly. *)
val iter_set : t -> Value.t -> (Value.t -> unit) -> unit

val set_length : t -> Value.t -> int

(** {2 Indexes} *)

(** [create_index t ~name ~cls ~attr] builds a B+-tree over the class
    extent.  Objects created without index slots are reallocated on disk to
    gain them — the Section 3.2 catastrophe; objects created with
    [~indexed:true] just get their membership recorded. *)
val create_index : t -> name:string -> cls:string -> attr:string -> Index_def.t

val find_index : t -> cls:string -> attr:string -> Index_def.t option
val indexes : t -> Index_def.t list

(** [analyze t] rebuilds optimizer statistics (key bounds, clustering
    factors, equi-width histograms) for every index — the ANALYZE the
    paper's cost-model project called for. *)
val analyze : ?buckets:int -> t -> unit

(** {2 Extents} *)

(** [scan_extent t ~cls f] visits the Rids of every live object of [cls] in
    physical order, fetching data pages as it goes.  Under shared-file
    organizations this reads pages holding other classes too — exactly the
    composition-clustering tax of Section 5.3. *)
val scan_extent : t -> cls:string -> (Tb_storage.Rid.t -> unit) -> unit

(** Pull-style extent scan for the executor's Seq_scan operator, a page at
    a time.  A data page is fetched (and charged) exactly when the cursor
    first needs a Rid from it, so driving a cursor to exhaustion produces
    the same charge sequence as {!scan_extent}. *)
type cursor

val scan_cursor : t -> cls:string -> cursor

(** [cursor_next_page cur] loads the matching Rids of the next page that
    has any into the cursor's buffer and returns how many there are; [0]
    at the end of the extent.  A batch never straddles a page boundary, so
    interleaving per-row page accesses with cursor advances keeps the
    charge order of a row-at-a-time walk. *)
val cursor_next_page : cursor -> int

(** The cursor's buffer: after [cursor_next_page cur] returned [n], its
    first [n] entries are that page's Rids in physical order.  Reused by
    the next [cursor_next_page]; callers must not keep it. *)
val cursor_rids : cursor -> Tb_storage.Rid.t array

val cardinality : t -> cls:string -> int

(** Pages of the file backing [cls] (shared files count whole). *)
val extent_pages : t -> cls:string -> int

(** {2 Lifecycle} *)

(** Commit the running transaction: force the log's commit record
    (standard mode; transaction-off drops the log), flush dirty pages,
    truncate the log, advance {!commit_seq} and fire the commit hook.
    Repeat-callable — the loaders commit every few thousand objects. *)
val commit : t -> unit

(** Roll the running transaction back: restore durable before-images from
    the log, drop volatile pages and handles, rewind the catalog (files,
    indexes, cardinalities, tree roots) to the last commit.  Returns the
    number of pages restored.  Raises [Invalid_argument] in transaction-off
    mode, which keeps no log to roll back from. *)
val rollback : t -> int

(** One-shot transaction handles over {!commit}/{!rollback}: resolving a
    handle twice (commit after commit, abort after abort, or any mix)
    raises [Invalid_argument]. *)
type txn_handle

val begin_txn : t -> txn_handle
val commit_txn : txn_handle -> unit
val abort_txn : txn_handle -> unit

(** [with_txn t f] runs [f t] and commits, or rolls back if [f] raises
    (including {!Transaction.Out_of_memory}) and re-raises.  A
    {!Tb_storage.Fault.Crash} is re-raised {e without} rolling back: a
    crashed machine has nothing volatile left to abort with — recover with
    {!crash_and_recover}. *)
val with_txn : t -> (t -> 'a) -> 'a

(** Shut the server down and drop the client's handles: the cold state in
    which every measured query starts. *)
val cold_restart : t -> unit

(** {2 Faults and crash recovery} *)

(** Arm ([Some]) or disarm ([None]) deterministic fault injection on both
    the page store and the log. *)
val set_fault : t -> Tb_storage.Fault.t option -> unit

(** Completed commits since creation (crash recovery of a winner counts
    its in-flight commit). *)
val commit_seq : t -> int

(** [set_commit_hook t (Some f)] runs [f ~seq] after every completed
    commit — the recovery oracle records durable fingerprints here. *)
val set_commit_hook : t -> (seq:int -> unit) option -> unit

(** Digest of the durable state only: file names and page images, no
    volatile state, no LSNs.  Two databases with equal fingerprints hold
    identical committed data. *)
val durable_fingerprint : t -> string

(** Total durable pages across all files — the size of the checksum walk a
    replica promotion verifies. *)
val durable_pages : t -> int

(** [release_temp t heap] retires a scratch file (a join's spill
    partition) its user is done with: its pages leave the durable state
    and are released at the next pool drop ({!cold_restart}, abort,
    crash).  While the log still holds touches (a standard-mode
    transaction in flight), the file waits for the next commit, abort or
    recovery, so that nothing the log reads is released under it.
    Charge-free. *)
val release_temp : t -> Tb_storage.Heap_file.t -> unit

type recovery = {
  outcome : [ `Winner | `Loser ];
  torn_pages : int;  (** pages whose checksum exposed a torn write *)
  redone : int;  (** pages replayed from after-images *)
  undone : int;  (** pages restored from before-images *)
}

(** Restart after a {!Tb_storage.Fault.Crash}: drop all volatile state,
    verify checksums, then — commit record durable — replay the winner's
    after-images and install its catalog, or — not durable — restore the
    loser's before-images, truncate its page and file allocations, and
    rewind the catalog to the last commit.  Disarms fault injection.
    Raises [Failure] if a torn page survives recovery. *)
val crash_and_recover : t -> recovery
