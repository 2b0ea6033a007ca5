(** Canonical cost-model fingerprints of the paper's figure workloads.

    [collect ~scale] rebuilds the databases behind Figures 6/7/9/11-15 and
    re-runs every measured cell cold, emitting one line per run that folds
    in every {!Tb_sim.Counters} field, the simulated elapsed time (as raw
    IEEE-754 bits) and the simulated memory peak.

    The golden file recorded from the engine as of the perf overhaul
    ([test/counter_golden_scale40.txt]) pins these lines down: real-time
    optimisations of the engine must leave every simulated number
    bit-identical, which is what the invariance test asserts.

    Logging/recovery counters (WAL appends, redo/undo pages, read retries)
    join the line as a [wal=… redo=… undo=… rr=…] suffix only when any is
    non-zero, so fault-free measured runs — which never log — keep matching
    the recorded golden lines byte for byte. *)

(** [per_op] (default false) appends an [ops:] suffix to every line —
    [opcode:rows_out:pages_read] per operator of the executed tree, in
    pre-order.  The default output is unchanged, so the golden file stays
    byte-identical; the suffix refines the totals down to the operator
    that produced them. *)
val collect : ?per_op:bool -> scale:int -> unit -> string list

(** [sharded_selection_lines ~shards ~scale ()] re-runs the selection part
    of the workload through the sharded engine
    ([Planner.run_sharded_explained] over a [~shards]-way
    {!Tb_derby.Generator.build_sharded} database), with the same tags as the unsharded lines.  At [shards = 1] the output must
    equal the golden file's ["sel "] lines byte for byte — the gate that
    pins "one shard is the unsharded engine".  At higher shard counts it
    fingerprints the partitioned physics instead. *)
val sharded_selection_lines : shards:int -> scale:int -> unit -> string list
