(** Plan selection.  [plan] is the closed-form chooser the paper's
    findings motivate: it ranks the Section 4.2 access paths and the join
    algorithms with {!Estimate}'s whole-query formulas, including the
    sorted-index-scan and hybrid choices.  Its [force_*] knobs pin any part
    of the choice; O2's navigation-biased heuristic of Section 2 (always
    the index, unsorted, and NL joins) is [~force_algo:NL
    ~force_sorted:false].  [optimize] is the four-stage pipeline (enumerate
    → cost → pick → validate) over per-operator estimates.

    Both choosers read one statistics source: a
    {!Tb_statcore.Stat_catalog.analyze} snapshot, taken once per [plan]
    call and passed to (or taken by) [optimize]. *)

(** [plan db q] chooses a physical plan from a fresh catalog snapshot.

    [organization] tells the chooser how the database was laid out
    (defaults to [Separate_files] when the two classes live in different
    files, [Shared_random] otherwise — composition clustering cannot be
    detected from the catalog and must be declared).
    [force_algo] pins the join algorithm (the benchmarks run all four);
    [force_sorted] pins the sorted-Rid flag of index scans and turns off
    the selection's fallback to a scan; [force_seq] pins scans.
    Raises {!Plan.Unsupported} on queries outside the subset. *)
val plan :
  ?organization:Estimate.organization ->
  ?force_algo:Plan.join_algo ->
  ?force_sorted:bool ->
  ?force_seq:bool ->
  Tb_store.Database.t ->
  Oql_ast.query ->
  Plan.t

(** [join_env stats bound ~organization] assembles the closed-form inputs
    {!Estimate.join_ms} needs for a bound hierarchical join from a catalog
    snapshot, with [plan]'s 0.1% selectivity floor (exposed for the
    [costmodel] figure, [treebench plan] and tests).
    Raises [Invalid_argument] if [bound] is a selection. *)
val join_env :
  Tb_statcore.Stat_catalog.t ->
  Plan.bound ->
  organization:Estimate.organization ->
  Estimate.env

(** [shape plan] assembles the physical operator tree.  Pure plan
    surgery — no database access, no charges: attribute names stay
    symbolic and the executor resolves slots once per operator.  Every
    node is on {!Op.make}'s shared empty frame: the tree can be costed
    ({!Estimate.annotate}) but not run.

    [packed] (default true) lets Fetch/Harvest evaluate on raw record
    bytes whenever the predicates are packed-compilable
    ({!Packed.compilable} — decided from the predicate constants alone, so
    lowering stays pure); non-compilable predicates fall back to the
    Handle path, visible as [mode=handle] in the lowered tree.  The knob
    moves no simulated charge.

    Raises {!Plan.Unsupported} when the algorithm needs an inverse
    reference the schema does not declare, [Invalid_argument] when
    NL/NOJOIN receive an index access on the navigated side (the planner
    never builds those). *)
val shape : ?packed:bool -> Plan.t -> Op.t

(** [lower plan] is [shape plan] given its run frames
    ({!Op.attach_frames}): the tree {!Exec} runs. *)
val lower : ?packed:bool -> Plan.t -> Op.t

(** Parse, plan and execute in one call (the public "just run it" API). *)
val run :
  ?organization:Estimate.organization ->
  ?force_algo:Plan.join_algo ->
  ?force_sorted:bool ->
  ?force_seq:bool ->
  ?packed:bool ->
  ?keep:bool ->
  Tb_store.Database.t ->
  string ->
  Query_result.t

(** Like {!run}, but returns the executed operator tree (frames populated)
    and the run's global counter deltas, ready for {!Op.pp_report}. *)
val run_explained :
  ?organization:Estimate.organization ->
  ?force_algo:Plan.join_algo ->
  ?force_sorted:bool ->
  ?force_seq:bool ->
  ?packed:bool ->
  ?keep:bool ->
  Tb_store.Database.t ->
  string ->
  Query_result.t * Op.t * Op.totals

(** [lower_sharded smap plan] rewrites [plan] into per-shard subtrees
    under an {!Op.Gather} root.  Shard-local algorithms (selections, NL,
    NOJOIN, SMJ — sound because placement colocates each provider with its
    patients) get one plain subtree per shard; hash joins get both sides
    harvested locally and routed through {!Op.Exchange} by retagged join
    key (PHHJ/CHHJ degenerate to PHJ/CHJ: repartitioning already splits
    the build side S ways).  Index accesses are remapped to each shard's
    replicated catalog entry.  With a single shard this returns exactly
    [lower plan] — no Gather, no Shard_lane — so the S=1 engine is the
    unsharded engine by construction.  The tree has its run frames. *)
val lower_sharded : ?packed:bool -> Tb_store.Shard_map.t -> Plan.t -> Op.t

(** Parse, plan (against shard 0) and execute across the shard map.
    Returns the result, the executed tree (per-shard frames populated),
    the global work totals ([Op.reconciles] holds), and the
    {!Exec.lane_report} with per-shard elapsed and the critical-path
    shard.  At S=1 the report is a single lane equal to the run's total. *)
val run_sharded_explained :
  ?organization:Estimate.organization ->
  ?force_algo:Plan.join_algo ->
  ?force_sorted:bool ->
  ?force_seq:bool ->
  ?packed:bool ->
  ?keep:bool ->
  Tb_store.Shard_map.t ->
  string ->
  Query_result.t * Op.t * Op.totals * Exec.lane_report

(** {2 The optimizer pipeline — enumerate → cost → pick → validate}

    The explicit path above ([plan] + [lower], with its [force_*] knobs)
    survives as the forced path; the pipeline below searches the whole
    candidate space instead. *)

(** One costed candidate, for explain output and snapshots. *)
type choice = {
  ch_plan : Plan.t;
  ch_packed : bool;
  ch_cost_ms : float;
}

(** The pick stage's output: the chosen plan, its lowered and annotated
    tree (ready to execute), and the whole ranked candidate space. *)
type decision = {
  d_plan : Plan.t;
  d_root : Op.t;
  d_packed : bool;
  d_cost_ms : float;
  d_candidates : choice list;  (** ranked best-first; ties keep enumeration order *)
  d_stats : Tb_statcore.Stat_catalog.t;
  d_organization : Estimate.organization;
}

(** A candidate's shape, e.g. ["PHJ parent=index child=seq packed"]
    ({!Enumerate.describe}); formatted on each call. *)
val ch_desc : choice -> string

(** The chosen candidate's shape, as {!ch_desc}. *)
val d_desc : decision -> string

(** [optimize db text] enumerates every candidate plan, costs each once by
    annotating its {!shape} against catalog statistics, and picks the
    strict argmin — on equal cost the first enumerated plan wins, which
    enforces the tie policy (the paper's originals over extensions, index
    over scan).  Costing never reads the evaluation mode, so the ranking
    lists each plan packed then handle at one cost, and the packed twin
    is the one picked.  [stats] defaults to a fresh
    {!Tb_statcore.Stat_catalog.analyze}; pass a retained catalog so
    validate-stage feedback reaches the next optimization.  Only the
    winner's tree gets run frames.  Never executes and never charges. *)
val optimize :
  ?stats:Tb_statcore.Stat_catalog.t ->
  ?organization:Estimate.organization ->
  Tb_store.Database.t ->
  string ->
  decision

(** The full pipeline: optimize, execute the chosen tree, then validate —
    reconcile every operator's estimate against its accounted frame,
    feeding mis-estimates (q-error > 2) back into the decision's
    catalog. *)
val run_optimized_explained :
  ?stats:Tb_statcore.Stat_catalog.t ->
  ?organization:Estimate.organization ->
  ?keep:bool ->
  Tb_store.Database.t ->
  string ->
  Query_result.t * decision * Op.totals * Exec.est_check list

(** The sharded-vs-unsharded break-even, decided from statistics alone. *)
type shard_decision = {
  sd_shards : int;
  sd_unsharded_ms : float;
  sd_sharded_ms : float;
  sd_use_sharded : bool;
  sd_decision : decision;
}

(** [optimize_sharded smap text] optimizes against the merged global
    catalog, then costs the chosen plan's sharded rewrite (each lane
    against a 1/S-scaled view, fork/join elapsed at the Gather) and says
    which side of the break-even the query falls on.  Nothing executes. *)
val optimize_sharded :
  ?organization:Estimate.organization ->
  Tb_store.Shard_map.t ->
  string ->
  shard_decision
