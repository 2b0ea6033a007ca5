(** Spilled large collections.

    Collections whose encoding exceeds a page are stored outside their owner
    as a chain of chunk records in a dedicated collection file (Section 2).
    The owner keeps a [Value.Big_set] holding the head chunk's Rid.
    Iterating the collection therefore costs real page fetches — which is
    why, in the 1:1000 database, a provider's 1000 clients live away from
    the provider object itself. *)

(** Encoded-collection size (bytes) above which {!Database} spills a set.
    Equal to the page size in the paper's O2. *)
val spill_threshold : int

(** [create heap elems] writes the chunks into [heap] and returns the head
    chunk's Rid. The element order is preserved. *)
val create : Tb_storage.Heap_file.t -> Value.t list -> Tb_storage.Rid.t

(** [iter heap head f] visits every element in order, fetching chunk pages
    as it goes. *)
val iter : Tb_storage.Heap_file.t -> Tb_storage.Rid.t -> (Value.t -> unit) -> unit

(** [iter_chunk_refs buf ~pos f] calls [f] on the Rid of each reference
    in the chunk whose body starts at [pos] in [buf], in order, skipping
    nil elements, and returns the next chunk's Rid ([Rid.nil] at the
    tail): {!iter}'s per-chunk work, read in place with nothing built.
    Raises [Invalid_argument] on an element that is not a reference. *)
val iter_chunk_refs : bytes -> pos:int -> (Tb_storage.Rid.t -> unit) -> Tb_storage.Rid.t

(** [length heap head] walks the chain and counts elements. *)
val length : Tb_storage.Heap_file.t -> Tb_storage.Rid.t -> int

val to_list : Tb_storage.Heap_file.t -> Tb_storage.Rid.t -> Value.t list
