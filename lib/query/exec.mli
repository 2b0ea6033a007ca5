(** The physical-plan interpreter.

    One recursive walk drives the operator tree {!Planner.lower} builds,
    pushing rows bottom-up through emit callbacks so the charge order —
    Handle lifetimes, page-fetch interleaving, hash and sort traffic — is
    identical to the monolithic per-algorithm drivers this replaced.

    Charge discipline (treelint R1): this module never charges the cost
    model itself; all charges happen inside the engine components and the
    {!Operators} kernels it calls.  The interpreter only switches the
    accounting frame ({!Op.Acct.enter}) so charges land on the operator
    responsible for them. *)

(** [run db root ~keep] executes the tree on [db]: index scans read
    [db]'s B-trees, whichever database the tree was planned on.  The root
    must be {!Op.Materialize}; frames are reset first, so a tree can be
    run repeatedly.  Raises [Invalid_argument] on malformed trees (the
    planner never builds one), on an index scan whose index [db] lacks,
    and, before any charge, on a tree without its frames
    ({!Planner.shape}'s, before {!Op.attach_frames}). *)
val run : Tb_store.Database.t -> Op.t -> keep:bool -> Query_result.t

(** Like {!run}, but also returns the run's global counter deltas in
    explain-report shape.  [Op.reconciles ~global root] must hold
    afterwards: per-operator frames sum exactly to these totals. *)
val run_explained :
  Tb_store.Database.t -> Op.t -> keep:bool -> Query_result.t * Op.totals

(** One mid-query replica promotion: which shard died, at which 1-based
    exchange-boundary ordinal, in which phase (["local"] for shard-local
    plans, ["route"] / ["dest"] for the two exchange phases), and how much
    lane time the detection + promotion + re-execution cost. *)
type failover = {
  fo_shard : int;
  fo_boundary : int;
  fo_phase : string;
  fo_ms : float;
}

(** How the simulated parallelism of one sharded run unfolded. *)
type lane_report = {
  lane_ms : float array;  (** per-shard busy time inside the fork scopes *)
  merge_ms : float;  (** the Gather's own elapsed after the last join *)
  elapsed_ms : float;  (** simulated elapsed of the whole run (max + merge) *)
  critical : int;  (** the critical-path shard: argmax of [lane_ms] *)
  failovers : failover list;  (** replica promotions, in occurrence order *)
  degraded : bool;  (** completed with reduced replicas *)
}

(** [run_sharded_explained smap root ~keep] executes the tree
    {!Planner.lower_sharded} builds against the shard map.  At S=1 that is
    the plain tree: it runs as {!run_explained} on shard 0 and the report
    is one lane holding the whole run ([lane_ms = [|t_ms|]], no merge).
    Otherwise it is an {!Op.Gather} over S {!Op.Shard_lane} subtrees.  Shard-local subtrees
    run in one fork/join clock scope (simulated elapsed = max over lanes);
    hash-join plans with {!Op.Exchange} children run two scopes with an
    all-to-all barrier between the route and the build/probe phase.  The
    returned totals are work totals ([Op.reconciles] holds against them);
    the lane report carries the elapsed-time story.

    When the shard map carries an armed fault registry
    ({!Tb_store.Shard_map.set_fault_registry}), each lane ticks its
    shard's boundary schedule at every exchange boundary; a scheduled
    crash raises {!Tb_storage.Fault.Shard_down}, which the executor
    catches on the lane: it charges a detection timeout, promotes the
    shard's next replica (refusing replicas are consumed until one passes
    its checksum walk) and re-drives the same shard-local nodes against
    the replica — index scans find the replica's B-trees — all inside the
    lane's clock scope, so the failover stretches [elapsed_ms] exactly
    when the dead shard is on the critical path.  Wasted first-attempt
    work stays in the frames (the re-drive uses the same nodes), so
    [Op.reconciles] still holds.  Fault-free and at [replicas = 1] the machinery adds zero
    charges and zero RNG draws: the PR 7 charge stream is bit-identical. *)
val run_sharded_explained :
  Tb_store.Shard_map.t ->
  Op.t ->
  keep:bool ->
  Query_result.t * Op.totals * lane_report

(** {2 Validate — the fourth optimizer stage}

    After execution, each annotated operator's estimate is reconciled
    against the ms its accounted frame accrued. *)

type est_check = {
  ec_key : string;  (** its correction key ({!Estimate.est_key}) *)
  ec_est_ms : float;
  ec_actual_ms : float;
  ec_q : float;  (** q-error, [max (est/actual, actual/est)] *)
  ec_fed_back : bool;  (** exceeded the threshold: correction recorded *)
}

(** [validate ~stats root] walks an executed, annotated tree in pre-order
    and returns one check per estimated operator.  Operators whose q-error
    exceeds [threshold] (default 2.0) feed a correction back into [stats]
    ({!Tb_statcore.Stat_catalog.observe}), so re-optimizing the same query
    converges.  Reads frames only; never charges. *)
val validate :
  ?threshold:float -> stats:Tb_statcore.Stat_catalog.t -> Op.t -> est_check list

(** Largest q-error in a check list (1.0 when empty). *)
val worst_q : est_check list -> float
