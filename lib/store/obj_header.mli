(** Per-object disk headers.

    Section 3.2's hard truth: when an object becomes persistent inside an
    indexed collection, O2 gives it a header with room for 8 index entries;
    objects created unindexed get no such room.  Creating the *first* index
    after loading therefore reallocates every object on disk — destroying
    both hours and the carefully imposed physical organization.  We
    reproduce that exactly: the header's encoded size depends on whether
    index slots were provisioned, and {!Database.create_index} must rewrite
    (and possibly relocate) objects whose headers lack slots. *)

type t

(** Slots provisioned when an object is created as a member of an indexed
    collection. *)
val default_slot_count : int

(** [create ~class_id ~indexed] — [indexed] provisions
    [default_slot_count] empty index slots. *)
val create : class_id:int -> indexed:bool -> t

val class_id : t -> int

(** Index ids this object belongs to. *)
val indexes : t -> int list

(** [add_index t idx] records membership; grows the slot array beyond
    {!default_slot_count} when needed ("it can be extended if required").
    Raises [Invalid_argument] if the header has no slot space at all —
    the object must be reallocated with a slotted header first. *)
val add_index : t -> int -> t

val remove_index : t -> int -> t

(** [with_slots t] is [t] with slot space provisioned (used during the
    reallocation pass). *)
val with_slots : t -> t

val set_deleted : t -> bool -> t

(** Encoded size in bytes: 4 without slots, [4 + 2*slots] with. *)
val encoded_size : t -> int

val encode : t -> bytes
val decode : bytes -> pos:int -> t * int

(** [peek_class_id b ~pos] reads just the class id of a header encoded at
    [pos] — no allocation. *)
val peek_class_id : bytes -> pos:int -> int

(** [peek_deleted b ~pos] reads just the deleted flag — no allocation. *)
val peek_deleted : bytes -> pos:int -> bool

(** [skip b ~pos] is the offset just past the header encoded at [pos]
    (i.e. where the attribute values begin), without decoding it. *)
val skip : bytes -> pos:int -> int

(** {2 In place}

    The byte-level write path builds headers straight into a record
    buffer, with the encodings {!encode} gives the equivalent [t]. *)

(** [write_fresh b ~pos ~class_id ~slots] writes [encode (create ~class_id
    ~indexed)] at [pos], with [slots] empty index slots ([0]: no slot
    space, as [~indexed:false]), and returns the offset just past it. *)
val write_fresh : bytes -> pos:int -> class_id:int -> slots:int -> int

(** [add_index_at b ~pos idx] is {!add_index} on the slotted header
    encoded at [pos], in place.  Raises [Invalid_argument] when every slot
    is taken (growing would move the attributes behind it). *)
val add_index_at : bytes -> pos:int -> int -> unit

(** [copy_adding src ~pos dst ~dpos idx] writes at [dpos] the encoding of
    [add_index (with_slots h) idx], where [h] is the header encoded at
    [src.[pos]], and returns the offset just past it. *)
val copy_adding : bytes -> pos:int -> bytes -> dpos:int -> int -> int
