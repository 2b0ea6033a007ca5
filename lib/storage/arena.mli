(** The scratch memory a join stows its sides in, owned by the database it
    runs on (like {!Rid_buf}): payload bytes, and two int stacks for the
    flat structures that index them (hash-table entries and key slots,
    sort runs), all in fixed-size chunks.

    Everything follows one stack discipline.  A run records the tops it
    starts at ({!top}, {!length}), works above them and truncates back on
    every way out, a raise included.  Runs nest: an inner run works above
    the outer one's space.  Chunks are kept between runs, up to a cap
    applied whenever the bytes or a stack pop back to empty (256 KiB of
    bytes, 32,768 entry cells, 16,384 slot cells), so a run within the cap
    allocates nothing once an earlier run has reached its size, and a
    larger one takes fresh chunks for its excess only and leaves no more
    than the cap behind.

    A byte offset names one chunk and a position in it ({!buf}, {!pos});
    an allocation never straddles two chunks, and a chunk, once made,
    never moves, so an offset stays valid until it is truncated away.
    Growth never copies. *)

type t

val create : unit -> t

(** {2 Bytes} *)

(** The first free byte offset: where the next allocation begins, unless
    it must move to the next chunk. *)
val top : t -> int

(** [alloc t n] reserves [n] contiguous bytes and returns their offset,
    starting the next chunk when the current one has less room.  Raises
    [Invalid_argument] when [n] is negative or above a chunk's 64 KiB (a
    payload is at most a record, and a record fits a page). *)
val alloc : t -> int -> int

(** [truncate t off] pops the bytes back to [off], a {!top} read earlier;
    raises [Invalid_argument] unless [0 <= off <= top t]. *)
val truncate : t -> int -> unit

(** The chunk holding offset [off]. *)
val buf : t -> int -> bytes

(** The position of offset [off] in its chunk. *)
val pos : int -> int

(** {2 Int stacks} *)

type stack

(** The stack of entry cells (hash-table entries, sort runs). *)
val entries : t -> stack

(** The stack of key-table cells. *)
val slots : t -> stack

val length : stack -> int

(** [get s i] and [set s i x] read and write cell [i], one of
    [0 .. length s - 1]. *)
val get : stack -> int -> int

val set : stack -> int -> int -> unit

(** [grow s k] lengthens [s] by [k] cells (their contents unspecified)
    and returns the index of the first new cell.  Raises
    [Invalid_argument] when [k] is negative. *)
val grow : stack -> int -> int

(** [shrink s n] pops [s] back to length [n]; raises [Invalid_argument]
    unless [0 <= n <= length s]. *)
val shrink : stack -> int -> unit
