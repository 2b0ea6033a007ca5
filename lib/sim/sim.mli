(** Simulation context: one per simulated machine.

    Bundles the cost model, the simulated clock, the event counters, the
    deterministic PRNG and the transient-memory accountant.  Every layer of
    the system (disk, buffer pools, handles, query operators) charges its
    events here, so that simulated elapsed time and the Figure-3-style
    statistics fall out of one place.

    {2 Memory accounting and swapping}

    Query operators register their transient structures (hash tables, result
    buffers) with [claim_bytes]/[release_bytes].  While the total exceeds the
    memory left over by the caches and the OS ([Cost_model.available_bytes]),
    random accesses (hash inserts and probes) suffer page faults with a
    probability that rises with the excess — the thrashing the paper observed
    when a "hash on a very large table" implied "a lot of memory swap"
    (Sections 3.5 and 5.1).  Sequential growth (result construction) pays at
    most one fault per page of excess, modelling write-behind.

    Fractional faults accumulate until a whole one is charged, so no PRNG
    draw is involved.  The two accumulators live in the float-only clock
    record ({!Clock.t}), where an update boxes nothing, and the "past
    available memory" test is made on ints ({!over_memory}), so an event
    under memory computes no ratio at all. *)

type t = {
  cost : Cost_model.t;
  clock : Clock.t;
  counters : Counters.t;
  rng : Rng.t;
  mutable working_bytes : int;
  mutable peak_working_bytes : int;  (** high-water mark since last [reset] *)
}

(** [create ?seed cost] makes a fresh context; [seed] defaults to 42. *)
val create : ?seed:int -> Cost_model.t -> t

(** Simulated elapsed seconds since the last [reset]. *)
val elapsed_s : t -> float

(** Reset clock, counters and fault accumulators (not the PRNG, not the
    claimed working memory). Used between cold runs. *)
val reset : t -> unit

(** {2 Transient memory} *)

val claim_bytes : t -> int -> unit
val release_bytes : t -> int -> unit

(** Bytes of transient query memory currently claimed. *)
val working_bytes : t -> int

(** [excess_ratio t] is [(claimed - available) / available], clamped at 0 —
    how far past physical memory the working structures have grown. *)
val excess_ratio : t -> float

(** [over_memory t] is [excess_ratio t > 0.0], decided on ints: whether
    the claimed working memory is past what is available. *)
val over_memory : t -> bool

(** {2 Charging events}

    Each [charge_*] bumps the matching counter and advances the clock. *)

val charge_disk_read : t -> unit
val charge_disk_write : t -> unit

(** [charge_rpc t ~pages] is one client/server round trip shipping [pages]
    pages. *)
val charge_rpc : t -> pages:int -> unit

val charge_client_hit : t -> unit
val charge_handle_alloc : t -> Cost_model.handle_kind -> unit
val charge_handle_free : t -> Cost_model.handle_kind -> unit

(** An object access served by an already-live Handle (delayed free paid
    off). *)
val charge_handle_hit : t -> unit

val charge_get_att : t -> unit
val charge_compare : t -> int -> unit

(** Hash-table traffic; these also roll the swap dice when the working set
    exceeds memory. *)
val charge_hash_insert : t -> unit

val charge_hash_probe : t -> unit

(** [charge_sort t n] charges an [n log2 n]-comparison sort (the Rid sort of
    Section 4.2). *)
val charge_sort : t -> int -> unit

(** One log record appended to the write-ahead log.  Counter only: the log's
    I/O is charged one page write per filled log page by the WAL itself, so
    the healthy path stays bit-identical to the pre-WAL accounting. *)
val charge_wal_append : t -> unit

(** One page restored from its after-image during crash recovery (a disk
    write plus the [redo_pages] counter). *)
val charge_redo_page : t -> unit

(** One page restored from its before-image during abort or recovery (a disk
    write plus the [undo_pages] counter). *)
val charge_undo_page : t -> unit

(** One transient read error: charges the wasted read plus the supplied
    settle time.  The caller computes [backoff_ms] from
    {!Cost_model.t.read_retry_backoff_ms} and the seeded fault Rng's jitter
    so retry charges are reproducible bit for bit.  Fault injection only. *)
val charge_read_retry : t -> backoff_ms:float -> unit

(** One shard RPC declared lost after {!Cost_model.t.rpc_timeout_ms} —
    the detection cost of a transient, partition or crash.  Fault injection
    only. *)
val charge_rpc_timeout : t -> unit

(** The exponential-backoff wait before re-issuing a timed-out shard RPC.
    The re-issued RPC itself is charged through {!charge_rpc}.  Fault
    injection only. *)
val charge_rpc_retry : t -> backoff_ms:float -> unit

(** One replica promotion: election plus a [pages]-page checksum walk over
    the follower's durable images.  Fault injection only. *)
val charge_failover : t -> pages:int -> unit

(** [charge_result_append t ~bytes ~standard] appends one element to the
    query result.  Under a standard transaction the system builds the
    collection "as if it could become persistent" (Section 4.2), which is
    what makes it cost ~0.6 ms per element. *)
val charge_result_append : t -> bytes:int -> standard:bool -> unit
