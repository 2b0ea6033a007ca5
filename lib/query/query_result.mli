(** Materialized query results, or folded aggregates.

    Under a standard transaction O2 builds a materialized result "as if it
    could become persistent", which is why constructing a collection of 1.8
    million integers takes ~18 minutes (Section 4.2).  Appends charge that
    cost and claim memory; a result too large for RAM spills sequentially
    (the spilled part stops being resident).

    In aggregate mode ({!create} with [~aggregate]) rows are folded into a
    scalar instead: no per-row construction cost, no memory — which is
    exactly what makes [count(...)] so much cheaper than materializing. *)

type t

(** [create sim ~keep] — when [keep] is true every value is retained for
    inspection (tests, small runs); otherwise only counts and a bounded
    sample are kept, while costs are charged identically.  [standard]
    (default true) selects the standard-transaction construction cost; the
    paper's measurements all ran in that mode.  [aggregate] switches to
    folding. *)
val create :
  ?standard:bool -> ?aggregate:Oql_ast.agg -> Tb_sim.Sim.t -> keep:bool -> t

(** [append t v] materializes or folds one row.
    Raises [Invalid_argument] when folding a non-numeric value into
    [sum]/[avg]/[min]/[max], or on a disposed result. *)
val append : t -> Tb_store.Value.t -> unit

(** [needs_value t] is whether the next row's value is read: the result is
    kept, the row is one of the sampled ones, or it feeds an aggregate
    other than [count].  When it is not, {!append_size} charges the row
    without it. *)
val needs_value : t -> bool

(** [append_size t mem] is [append t v] for a row [v] that is not built:
    [mem] is its {!Tb_store.Codec.mem_bytes}, and the charges, count and
    size are those [append] makes.  Raises [Invalid_argument] on a
    disposed result or when {!needs_value} holds. *)
val append_size : t -> int -> unit

(** [absorb t src] merges a partial (per-shard) result into [t] and
    retires [src] (it becomes disposed; its resident memory claim
    transfers to [t]).  Charge-free: the rows were built — and paid for —
    by the shard that produced them; the gather operator charges their
    shipping separately.  Raises [Invalid_argument] when either result is
    disposed, [t == src], or the modes/aggregates differ. *)
val absorb : t -> t -> unit

(** Rows materialized, or the single aggregate row (0 while no row has been
    folded and the aggregate is undefined, 1 otherwise; [count] is always
    defined). *)
val count : t -> int

(** Rows that went through [append] (equals [count] when materializing). *)
val rows_seen : t -> int

(** All values (insertion order) when [keep], or the aggregate's value;
    raises [Invalid_argument] on an unkept materialized result. *)
val values : t -> Tb_store.Value.t list

(** First few values (or the aggregate), always available. *)
val sample : t -> Tb_store.Value.t list

(** Simulated bytes the result occupies (0 for aggregates). *)
val size_bytes : t -> int

(** Release the claimed memory. *)
val dispose : t -> unit
