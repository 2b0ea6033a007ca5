(** Horizontal partitioning: S full databases behind one simulation.

    A shard map owns S {!Database.t} instances — each with its own heap
    files, buffer pools, WAL and indexes — all charging the one shared
    {!Tb_sim.Sim.t}.  Placement is a deterministic salted hash on the
    partition key ([shard_of_key]); the salt is drawn from a private
    {!Tb_sim.Rng} seeded by the caller so placement never consumes draws
    from (or perturbs) the data-generation RNG.

    Simulated parallelism lives in the executor's {!Tb_sim.Clock} fork/join
    scopes, not here: the map is pure placement and lifecycle.

    Since PR 8 each shard can carry [replicas - 1] follower databases —
    byte-identical twins on distinct "nodes", built by applying the
    primary's statement stream to the whole {!group}.  {!promote} installs
    the next follower as primary after WAL catch-up and a checksum walk,
    {!repair} undoes every promotion, and {!set_fault_registry} gives each
    shard its own {!Tb_storage.Fault} schedule.  At [replicas = 1] (the
    default) none of it exists: no follower databases are created and the
    PR 7 charge stream is bit-identical. *)

type t

(** The largest shard count {!create} accepts (16): exchange tags each
    key Rid's file id as [shard * Rid.disk_file_limit + file], and the
    tagged id must fit {!Tb_storage.Rid.max_file}. *)
val max_shards : int

(** [create sim ~schema ~shards ~server_pages ~client_pages ~key_attr ~seed ()]
    builds [shards] databases over [sim].  The page budgets are one
    machine's worth and are divided evenly across shards (floor, min 2) —
    sharding partitions the cache, it does not grow it.  [key_attr] names
    the attribute whose hash places an object ("upin" for Derby).
    [replicas] (default 1) is the total copies of each shard, primary
    included; raises [Invalid_argument] when [shards <= 0],
    [shards > max_shards], [replicas < 1] or [replicas > shards] (each copy
    needs its own node). *)
val create :
  Tb_sim.Sim.t ->
  schema:Schema.t ->
  shards:int ->
  ?replicas:int ->
  server_pages:int ->
  client_pages:int ->
  ?handle_kind:Tb_sim.Cost_model.handle_kind ->
  ?zombie_limit:int ->
  ?txn_mode:Transaction.mode ->
  key_attr:string ->
  seed:int ->
  unit ->
  t

val count : t -> int

(** [shard t i] is shard [i]'s current primary; raises [Invalid_argument]
    out of range. *)
val shard : t -> int -> Database.t

(** [group t i] is shard [i]'s primary followed by its not-yet-promoted
    followers — the databases a replicated build applies each statement
    to.  A singleton at [replicas = 1]. *)
val group : t -> int -> Database.t list

(** Copies of shard [i] still standing (primary plus followers). *)
val live_replicas : t -> int -> int

val sim : t -> Tb_sim.Sim.t

(** The partition-key attribute name chosen at [create]. *)
val key_attr : t -> string

(** [shard_of_key t k] maps a partition-key value to its shard number.
    Always [0] when [count t = 1]. *)
val shard_of_key : t -> int -> int

(** [iter t f] runs [f i db] over shard primaries in index order. *)
val iter : t -> (int -> Database.t -> unit) -> unit

(** [iter_group t f] runs [f i group] over shards in index order, where
    [group] is the primary plus its standing followers. *)
val iter_group : t -> (int -> Database.t list -> unit) -> unit

(** Per-shard {!Database.cold_restart} (followers included), shard order. *)
val cold_restart : t -> unit

(** Per-shard {!Database.commit} (followers included), shard order. *)
val commit : t -> unit

(** {2 Faults and failover} *)

(** [set_fault_registry t (Some r)] wires shard [s]'s fault layer
    [Fault.shard_fault r s] into its primary (transient read faults) and
    exposes it through {!fault} (boundary / RPC events, consulted by the
    sharded executor).  [None] disarms everything.  Raises
    [Invalid_argument] when the registry size differs from [count]. *)
val set_fault_registry : t -> Tb_storage.Fault.registry option -> unit

(** The armed fault layer scoped to shard [s] — [None] when no registry is
    wired or after the shard failed over (a promoted replica starts with a
    clean slate, so fault-free boundaries stay charge-free). *)
val fault : t -> int -> Tb_storage.Fault.t option

(** [promote t ~shard] installs the shard's next follower as primary:
    drops its volatile state, verifies every durable page's checksum and
    catches up from its WAL ({!Database.crash_and_recover}), then charges
    the failover (election + checksum walk) to the shared clock.  [Error]
    when no follower remains or a torn page survives verification — the
    refusing replica is consumed, so a retry proceeds to the next one. *)
val promote : t -> shard:int -> (Database.t, string) result

(** Undo every promotion (original primaries and follower order restored)
    and re-arm per-shard faults from the wired registry — the chaos
    sweep's repair step between kill points. *)
val repair : t -> unit
