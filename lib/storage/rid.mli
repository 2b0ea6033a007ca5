(** Physical record identifiers.

    O2's internal [Rid] type is a physical disk address (the [@p1], [@d2]
    markers of Figure 2).  The paper's join study deliberately targets
    physical identifiers (in contrast to the logical OIDs of Braumandl et
    al.), so a Rid here is exactly a (file, page, slot) triple.  Rids order
    by physical position — sorting Rids before fetching is the Section 4.2
    optimization that makes unclustered index scans sequential.

    The triple is packed into one immediate int (slot in the low 16 bits,
    page in the next 26, file in the 20 above), so a Rid never allocates
    and compares with one instruction. *)

type t = private int

(** Largest file id (2{^20} - 1), page number (2{^26} - 1) and slot
    (2{^16} - 1) a Rid can hold. *)
val max_file : int

val max_page : int
val max_slot : int

(** The on-disk file field is 16 bits wide: a Rid that is written to a
    page has [file < disk_file_limit] (0x10000). *)
val disk_file_limit : int

(** Raises [Invalid_argument] when a field is negative or above its
    maximum. *)
val make : file:int -> page:int -> slot:int -> t

val file : t -> int
val page : t -> int
val slot : t -> int

(** A sentinel used for "nil" references (a retired doctor's patients...).
    Its fields read as -1, and it sorts before every other Rid. *)
val nil : t

val is_nil : t -> bool

(** Physical order: file, then page, then slot. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** FNV-1a over [(file, page, slot)]: stable across runs and OCaml
    versions, never negative. *)
val hash : t -> int

(** Sort in place into [compare] order (a radix sort over the packed
    ints). *)
val sort : t array -> unit

(** Bytes a Rid occupies on disk (the paper counts 8 per identifier). *)
val on_disk_bytes : int

(** Fixed-width binary encoding, [on_disk_bytes] long. *)
val encode : t -> bytes

(** [encode_into t b ~pos] writes the encoding at [pos] without
    allocating. *)
val encode_into : t -> Bytes.t -> pos:int -> unit

val decode : bytes -> pos:int -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string
