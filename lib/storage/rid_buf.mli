(** A growable stack of Rids with an in-place sort: the buffer a sorted
    index scan gathers its Rids in (Figure 8 right), owned by the database
    it runs on.

    A run takes the slice above the current {!length}, pushes its Rids,
    sorts and reads them, then {!truncate}s back to where it began, on
    every path out.  Runs nest: an inner run works above the outer one's
    slice.  The array is kept between runs and grows by half when full, so
    a run no longer than an earlier one allocates nothing. *)

type t

val create : unit -> t

(** The top of the stack: where the next run's slice begins. *)
val length : t -> int

(** [push t rid] appends [rid], growing the array by half when it is
    full. *)
val push : t -> Rid.t -> unit

(** [truncate t n] pops back to length [n]; raises [Invalid_argument]
    unless [0 <= n <= length t]. *)
val truncate : t -> int -> unit

(** The current array; entries [0 .. length t - 1] are the stack.  A later
    {!push} may replace it with a larger copy, so read it again after
    pushing. *)
val contents : t -> Rid.t array

(** [sort t ~pos ~len] sorts [contents t] from [pos] to [pos + len - 1]
    into {!Rid.compare} order, in place and without allocating (an
    American-flag radix sort over the packed ints; the bucket tables are
    made on the first long sort and kept).  Nothing outside the slice
    moves.  Raises [Invalid_argument] when the slice is not on the
    stack. *)
val sort : t -> pos:int -> len:int -> unit
