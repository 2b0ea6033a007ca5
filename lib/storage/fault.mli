(** Deterministic disk-fault injection.

    A [Fault.t] sits under the cache stack and the WAL and decides, for each
    write that would reach the durable medium, whether the machine survives
    it.  Everything is driven by its own {!Tb_sim.Rng} and explicit
    schedules, so a failing run replays exactly from its seed — the point of
    the exercise is a crash sweep the test suite can enumerate.

    Three fault classes:
    - {e scheduled crashes}: the [N]th write from now kills the machine.
      The write itself is lost ([Crash_lost]) or half-applied
      ([Crash_torn]: the first half of the page, including the checksum
      word, reaches the platter; the tail does not — the classic torn
      write a page checksum exists to catch);
    - {e torn writes} only arise from a scheduled crash: a lone torn write
      without a crash would be caught by the drive's own write-back;
    - {e transient read errors}: each physical page read fails with a fixed
      probability and is retried after a backoff charged to the simulated
      clock ({!Tb_sim.Sim.charge_read_retry}), up to [max_retries] times
      before the read succeeds (the fault is transient by definition).

    Since PR 8 a [Fault.t] also carries the {e shard-scoped} fault classes
    used by the sharded executor — whole-shard crashes and partitions keyed
    to exchange-boundary ordinals, and transient RPC loss — plus a
    {!registry} that gives every shard its own independently-seeded
    schedule.  The single-node API is unchanged. *)

exception Crash
(** Raised by the storage layer at the scheduled crash point, after the
    fault's write outcome has been applied to the durable state. *)

exception Shard_down of int
(** Raised at an exchange boundary when the shard's scheduled crash fires
    (or when the shard is already down).  Only [Fault], [Exchange] and
    [Exec] may raise or catch this (treelint rule R6): the executor turns
    it into a replica failover, everything else must stay oblivious. *)

type write_outcome =
  | Ok          (** the write completes *)
  | Crash_lost  (** machine dies; the write never reached the medium *)
  | Crash_torn  (** machine dies; only the first half-page reached it *)

type boundary_outcome =
  | B_ok                  (** the boundary passes cleanly *)
  | B_partitioned of int  (** unreachable for that many timeout rounds *)

type t

(** [create ~seed] is a quiescent fault layer (no crash scheduled, no read
    errors) with its own deterministic PRNG. *)
val create : seed:int -> t

(** [schedule_crash t ~at_write ~torn] arms the countdown: the [at_write]th
    subsequent durable write (1-based) crashes the machine, torn or clean.
    Re-arming replaces any previous schedule. *)
val schedule_crash : t -> at_write:int -> torn:bool -> unit

(** [set_read_faults t ~permille ~max_retries] makes each physical read fail
    with probability [permille]/1000, retried at most [max_retries] times
    before succeeding regardless. *)
val set_read_faults : t -> permille:int -> max_retries:int -> unit

(** [set_rpc_faults t ~permille ~max_retries] makes each shard RPC time out
    with probability [permille]/1000, re-issued at most [max_retries] times
    before going through regardless (the loss is transient by definition). *)
val set_rpc_faults : t -> permille:int -> max_retries:int -> unit

(** [schedule_shard_crash t ~at_boundary] arms the shard-kill countdown: the
    [at_boundary]th subsequent exchange boundary (1-based) takes the whole
    shard down — {!on_boundary} raises {!Shard_down} there and at every
    later boundary until {!revive}. *)
val schedule_shard_crash : t -> at_boundary:int -> unit

(** [schedule_partition t ~at_boundary ~rounds] makes the shard unreachable
    at the given boundary for [rounds] timeout windows; unlike a crash it
    heals by itself and the boundary then passes. *)
val schedule_partition : t -> at_boundary:int -> rounds:int -> unit

(** Tick the write countdown.  The caller applies the outcome (persist,
    half-persist, or nothing) and raises {!Crash} on either crash result. *)
val on_write : t -> write_outcome

(** One PRNG draw against the read-error probability. *)
val read_fails : t -> bool

(** Tick the exchange-boundary ordinal.  Raises {!Shard_down} if the
    scheduled shard crash fires here (or already did); otherwise reports
    whether a partition delays this boundary.  A quiescent fault layer
    neither draws from the Rng nor charges anything — the fault-free path
    stays bit-identical. *)
val on_boundary : t -> boundary_outcome

(** One PRNG draw against the RPC-loss probability. *)
val rpc_fails : t -> bool

(** One PRNG draw — a backoff multiplier in [0.5, 1.5) applied to whatever
    base the caller computed.  The only randomness in retry timing, and it
    comes from the seeded Rng, never wall clock. *)
val backoff_jitter : t -> float

(** Bring a downed shard back and disarm its boundary schedules (the chaos
    harness reuses one build across kill points).  Also resets the boundary
    ordinal so a re-armed schedule counts from the next query's start. *)
val revive : t -> unit

val max_read_retries : t -> int
val max_rpc_retries : t -> int

(** Writes / reads / exchange boundaries that have passed through this layer
    (diagnostics; boundary ordinals also parameterize the chaos sweep). *)
val writes_seen : t -> int

val boundaries_seen : t -> int

(** {2 Shard-addressable registry}

    One [Fault.t] per shard, each with its own Rng seeded deterministically
    from a single master seed — the composable replacement for PR 3's
    one-global-schedule shape. *)

type registry

(** [registry ~seed ~shards] derives [shards] independent fault layers from
    one master seed. *)
val registry : seed:int -> shards:int -> registry

(** The fault layer scoped to shard [s]. *)
val shard_fault : registry -> int -> t

val registry_size : registry -> int
val iter_registry : registry -> (t -> unit) -> unit
