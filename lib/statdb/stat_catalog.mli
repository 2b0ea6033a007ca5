(** The optimizer's statistics catalog — the "what statistics should the
    system maintain" half of the paper's closing question, packaged for the
    cost stage.

    [analyze] snapshots maintained catalog state only: per-extent
    cardinality and page count, heap-file identity, index clustering
    factors, key bounds and histograms, plus the cost model's RAM budget.
    It is a snapshot: re-analyzing the database afterwards moves no
    estimate read from this catalog.  It never fetches a page and never
    charges — treelint R1 enforces that costing code stays out of the
    charging set.

    The catalog also carries the validate stage's feedback: per-operator-key
    correction factors ({!observe}) that the cost stage folds into later
    estimates, so a repeated query converges onto its accounted cost.

    Last, it holds the optimizer's prepared entries ({!find_prepared}). *)

type extent = {
  x_cls : string;
  x_card : int;  (** extent cardinality (catalog counter) *)
  x_pages : int;  (** pages of the heap file slice holding the extent *)
  x_rows_per_page : float;
  x_file : int;  (** heap-file id: classes sharing a file share an id *)
}

type index = {
  i_cls : string;
  i_attr : string;
  i_clustering : float;  (** maintained clustering factor in [0,1] *)
  i_keys : Tb_store.Index_def.key_stats;
      (** key bounds and histogram as of {!analyze}: the index replaces
          this record on a re-analyze, never edits it *)
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

(** Fraction of the index's entries inside the key window [lo, hi)
    (inclusive, exclusive; [None] is unbounded), from the histogram when
    one was built and the uniform assumption otherwise, as of {!analyze}.
    Unfloored. *)
val key_window : index -> lo:int option -> hi:int option -> float

(** Whether two classes share one heap file (Figure 2's organizations). *)
val shared_file : t -> string -> string -> bool

(** Rough stored width of one attribute, from the schema type. *)
val attr_bytes : t -> cls:string -> string -> int

(** One shard's view of an S-way partitioned database: extents shrunk to
    1/S, indexes and corrections shared, no prepared entry.  Identity at
    [shards <= 1]. *)
val scale : t -> shards:int -> t

(** The global view over per-shard catalogs: cardinalities and pages
    summed, index statistics and corrections those of the first, no
    prepared entry.  Raises [Invalid_argument] on an empty list. *)
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

(** Mis-estimate observations recorded since the catalog was built. *)
val fed_back : t -> int

(** {2 Prepared entries}

    The optimizer keeps what it derives from a query text alone (parse,
    binding, candidate plans and each plan's cost program) here, one entry
    per text and variant, so that a repeated text is only re-costed
    against the current corrections.  An entry is built from this
    snapshot, which never changes, so it needs no epoch: only the
    corrections move, and the optimizer re-reads them on every call.
    [prepared] is opaque at this layer; the optimizer extends it. *)

type prepared = ..

(** The most entries one catalog admits; past it, {!add_prepared} admits
    nothing and a new text is prepared afresh on every call. *)
val max_prepared : int

(** [analyzed_from t schema]: [t] was analyzed from a database with this
    very schema (physical equality) — the condition for its entries to
    apply. *)
val analyzed_from : t -> Tb_store.Schema.t -> bool

(** The entry for [text] under [variant].  Raises [Not_found]; a hit
    allocates nothing. *)
val find_prepared : t -> text:string -> variant:int -> prepared

(** Admit an entry, unless {!max_prepared} are already held.  The caller
    adds a (text, variant) pair at most once. *)
val add_prepared : t -> text:string -> variant:int -> prepared -> unit
