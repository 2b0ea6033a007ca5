(** In-memory object representatives.

    Section 4 is a post-mortem of these: every object touched by a query
    gets a Handle — a structure that in O2 carries ~60 bytes of flags,
    type/version/index pointers and a refcount, and whose allocation and
    (delayed) destruction dominate the CPU cost of cold associative
    accesses.  The simulated price of a Handle (fat or compact, see
    {!Tb_sim.Cost_model.handle_kind}) is charged by {!Handle_table}, which
    owns a slab and picks the kind.

    On the host a Handle is a slot of a struct-of-arrays {!slab}: pinning
    an object fills a few array cells and allocates nothing.  A loaded
    Handle is packed: it records where the object's attributes live inside
    the buffer-pool page, and attribute reads skip-walk those bytes in
    place, so acquiring an object copies nothing and never pays for
    attributes the query ignores.  A write to the record re-points its
    resident Handle at the bytes it wrote ({!repoint}), so the Handle
    stays packed and coherent with the store.  All of this is real-time machinery only: the simulated costs (handle
    alloc/free, get_att) do not depend on it.

    Every accessor raises [Invalid_argument] on a freed slot (its rid is
    {!Tb_storage.Rid.nil}); a slot index is reused by the next allocation,
    so a Handle must not be kept past its last {!Handle_table.unreference}. *)

type t = private int

(** Not a Handle: what {!Handle_table.find_resident} answers for an absent
    Rid.  Every accessor rejects it. *)
val none : t

type slab

val create_slab : unit -> slab

(** [alloc_packed s ~rid ~class_id ~page ~slot ~delta ~body] takes a free
    slot (refcount 1) for a record on [page]: [slot] is its physical slot
    (not the home Rid's slot if the record was relocated by a growing
    update), [body] the absolute offset of its first attribute and [delta]
    that offset relative to the record span (framing tag + header), which
    is immutable for a given record body.  Raises [Invalid_argument] on a
    nil [rid]. *)
val alloc_packed :
  slab ->
  rid:Tb_storage.Rid.t ->
  class_id:int ->
  page:Tb_storage.Page_layout.t ->
  slot:int ->
  delta:int ->
  body:int ->
  t

(** [repoint s h ~class_id ~page ~slot ~delta ~body] moves a live Handle
    to the record a write just put on [page], with {!alloc_packed}'s
    meaning of the position arguments.  The rid and refcount stay. *)
val repoint :
  slab ->
  t ->
  class_id:int ->
  page:Tb_storage.Page_layout.t ->
  slot:int ->
  delta:int ->
  body:int ->
  unit

(** [free s h] returns the slot to the slab, dropping its page. *)
val free : slab -> t -> unit

val rid : slab -> t -> Tb_storage.Rid.t
val class_id : slab -> t -> int
val refcount : slab -> t -> int
val set_refcount : slab -> t -> int -> unit

(** [packed_buf s h] is the page buffer holding the Handle's record, with
    {!packed_body} revalidated to the offset of its first attribute (the
    page may have compacted since the Handle was loaded). *)
val packed_buf : slab -> t -> bytes

(** Absolute offset of the first attribute in {!packed_buf}'s buffer, as of
    the last [packed_buf]. *)
val packed_body : slab -> t -> int
