(** Exchange/Gather charge kernels — the shipping side of sharded execution.

    The only module that charges repartition and gather traffic (treelint
    R1): {!Exec} drives the loops, this module pays for them.  Rows move
    between shard lanes by client/server RPC, batched one page at a time,
    mirroring the page-shipping architecture of the paper's client/server
    engine.

    Buffers are kept per (source, destination) pair so that a source lane
    that dies mid-route can be dropped and re-routed from a replica
    without disturbing the other sources' streams; and every page RPC to a
    shard with an armed {!Tb_storage.Fault} schedule first rides out its
    drawn losses — a charged timeout window plus an exponentially
    backed-off, jittered re-issue per loss.  Quiescent faults charge
    nothing and draw nothing: fault-free runs are bit-identical to PR 7. *)

(** An S-way routed buffer: rows accumulate per (source, destination)
    cell, claim simulated memory, and pay one RPC per filled page. *)
type 'a t

(** [create ?fault_of sim ~shards] — [fault_of d] is the fault layer
    guarding the link to destination shard [d] (default: none).  Raises
    [Invalid_argument] when [shards <= 0]. *)
val create :
  ?fault_of:(int -> Tb_storage.Fault.t option) ->
  Tb_sim.Sim.t ->
  shards:int ->
  'a t

val shards : 'a t -> int

(** [retag ~shard rid] tags a key Rid with its source shard so keys from
    different shards can never collide after repartitioning.  Colocated
    join sides carry the same tag on both sides of a matching pair.  A nil
    key stays nil. *)
val retag : shard:int -> Tb_storage.Rid.t -> Tb_storage.Rid.t

(** Destination lane of a (retagged) key: its hash modulo the lane count. *)
val dest_of : 'a t -> Tb_storage.Rid.t -> int

(** [send t ~src ~dest ~bytes v] routes one row from source lane [src]:
    buffers it, claims [bytes] of simulated memory, and charges one
    single-page RPC (riding out any drawn losses first) each time the
    pair's buffered bytes fill a page. *)
val send : 'a t -> src:int -> dest:int -> bytes:int -> 'a -> unit

(** End of source [src]'s stream: ship its partial page to every
    destination holding one (one single-page RPC per non-empty partial). *)
val flush_source : 'a t -> src:int -> unit

(** [take t ~dest] is lane [dest]'s rows in arrival order (per-source
    streams concatenated in ascending source order).  Charge-free and
    non-destructive: rows stay buffered until {!release_dest}, so a
    destination lane that fails over can be re-driven on the replica. *)
val take : 'a t -> dest:int -> 'a list

(** Discard everything source [src] routed — rows and claimed bytes —
    so the stream can be re-sent from a replica after a source-side
    failover. *)
val drop_source : 'a t -> src:int -> unit

(** Release the rows and simulated memory still held for lane [dest]
    (call after the lane's output has been shipped to the coordinator). *)
val release_dest : 'a t -> dest:int -> unit

(** Release everything (exception cleanup). *)
val dispose : 'a t -> unit

(** {2 Failure kernels} *)

(** [boundary sim fault] ticks one exchange boundary on a shard's lane:
    charges a partition's ride-out (timeout + backed-off re-probe per
    round) and lets a scheduled shard crash escape as
    {!Tb_storage.Fault.Shard_down}.  Free when [fault] is [None] or
    quiescent. *)
val boundary : Tb_sim.Sim.t -> Tb_storage.Fault.t option -> unit

(** The coordinator's cost of learning a lane is dead: one timeout
    window.  Promotion is charged separately by [Shard_map.promote]. *)
val detect_failure : Tb_sim.Sim.t -> unit

(** {2 Gather kernels} *)

(** Ship one shard's partial result to the coordinator: one RPC carrying
    [bytes] rounded up to whole pages (0 pages for an empty partial still
    pays the fixed round-trip). *)
val ship_partial : Tb_sim.Sim.t -> bytes:int -> unit

(** [merge_ordered sim ~rows ~streams] charges the comparisons of an
    S-way tournament merge: [rows * ceil (log2 streams)].  No-op for a single
    stream or an empty result. *)
val merge_ordered : Tb_sim.Sim.t -> rows:int -> streams:int -> unit
