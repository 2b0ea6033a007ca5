(** The optimizer's statistics catalog — the "what statistics should the
    system maintain" half of the paper's closing question, packaged for the
    cost stage.

    [analyze] snapshots maintained catalog state only: per-extent
    cardinality and page count, heap-file identity, index clustering
    factors, key bounds and histograms, plus the cost model's RAM budget.
    It never fetches a page and never charges — treelint R1 enforces that
    costing code stays out of the charging set.

    The catalog also carries the validate stage's feedback: per-operator-key
    correction factors ({!observe}) that the cost stage folds into later
    estimates, so a repeated query converges onto its accounted cost. *)

type extent = {
  x_cls : string;
  x_card : int;  (** extent cardinality (catalog counter) *)
  x_pages : int;  (** pages of the heap file slice holding the extent *)
  x_rows_per_page : float;
  x_file : int;  (** heap-file id: classes sharing a file share an id *)
}

type index = {
  i_def : Tb_store.Index_def.t;
  i_cls : string;
  i_attr : string;
  i_clustering : float;  (** maintained clustering factor in [0,1] *)
  i_lo : int;  (** smallest indexed key *)
  i_hi : int;  (** largest indexed key *)
}

(** est' = raw * c_mul + c_add; the additive leg serves operators whose raw
    estimate is ~zero. *)
type corr = { c_mul : float; c_add : float }

type t

(** Snapshot a database's maintained statistics.  Charge-free: reads only
    catalog counters and {!Tb_store.Index_def} fields. *)
val analyze : Tb_store.Database.t -> t

val cost : t -> Tb_sim.Cost_model.t
val client_cache_pages : t -> int

(** RAM left after the engine's reservation — what a hash table may grow
    into before the thrash model bites. *)
val available_bytes : t -> int

(** The class's extent.  Raises [Not_found] for an unknown class. *)
val find_extent : t -> cls:string -> extent

(** The index on [cls.attr].  Raises [Not_found] when there is none. *)
val find_index : t -> cls:string -> attr:string -> index
val is_clustered : index -> bool

(** Fraction of the index's entries with key strictly below [k]
    (histogram when built, uniform assumption otherwise). *)
val selectivity_below : index -> int -> float

(** Whether two classes share one heap file (Figure 2's organizations). *)
val shared_file : t -> string -> string -> bool

(** Rough stored width of one attribute, from the schema type. *)
val attr_bytes : t -> cls:string -> string -> int

(** One shard's view of an S-way partitioned database: extents shrunk to
    1/S, indexes and corrections shared.  Identity at [shards <= 1]. *)
val scale : t -> shards:int -> t

(** The global view over per-shard catalogs: cardinalities and pages
    summed, key bounds widened; corrections shared with the first.
    Raises [Invalid_argument] on an empty list. *)
val merge : t list -> t

(** {2 Feedback}

    Corrections are keyed by an operator's opcode and the class it works
    over ([Estimate.est_key] joins the two for display).  A corrected
    estimate is [raw *. c_mul +. c_add]. *)

(** The key's correction; one shared identity when it has none. *)
val correction : t -> op:string -> cls:string -> corr

(** Record a mis-estimate for the key: after this call, the corrected
    estimate of the same raw estimate is [actual_ms] (one-round
    convergence). *)
val observe : t -> op:string -> cls:string -> est_ms:float -> actual_ms:float -> unit

(** Mis-estimate observations recorded since the last
    {!reset_corrections}. *)
val fed_back : t -> int

val reset_corrections : t -> unit
