(** Cost formulas for the optimizer.

    The project the paper set out on — "what statistics the system should
    maintain and how to incorporate them into a cost model" — distilled into
    closed-form estimates of the event counts the simulator charges: page
    reads (sequential vs random through an LRU cache), Handle pairs, hash
    traffic, Rid sorts, result construction and swap thrash.  The cost-based
    planner ranks access paths and the four join algorithms with these. *)

type organization =
  | Separate_files  (** one file per class (Figure 2 left) *)
  | Shared_random  (** everything in one file, randomly (Figure 2 middle) *)
  | Shared_composition
      (** children clustered behind their parent (Figure 2 right) *)
  | Assoc_clustered
      (** Section 5.3's alternative: separate files, children stored in
          parent-association order *)

(** One side of a query: an extent with a selectivity already folded in. *)
type side = {
  card : int;  (** extent cardinality *)
  pages : int;  (** pages of the file holding the extent *)
  sel : float;  (** fraction surviving this side's predicates *)
  has_index : bool;  (** a usable index covers the predicate window *)
  index_clustered : bool;
  payload_bytes : int;  (** bytes of this side stowed per hash entry *)
}

type env = {
  cost : Tb_sim.Cost_model.t;
  organization : organization;
  client_cache_pages : int;
  parent : side;
  child : side;
  fanout : float;  (** average children per parent *)
  result_bytes_per_row : int;
}

(** Expected distinct pages touched when [n] uniform references hit a
    [pages]-page file.  Clamped at both boundaries: zero when the file is
    empty (or [n] non-positive), and saturating at [pages] once [n] covers
    every stored row ([rows_per_page], default infinity, sets that limit). *)
val distinct_pages : ?rows_per_page:float -> n:float -> pages:float -> unit -> float

(** {2 Selections} *)

val selection_seq_ms : env -> float
val selection_index_ms : env -> sorted:bool -> float

(** {2 Joins} — cost (ms) of each Section 5.1 algorithm. *)

val join_ms : env -> Plan.join_algo -> float

(** Every join algorithm, in a fixed order. *)
val all_algos : Plan.join_algo list

(** All algorithms ranked, best first (ties keep [all_algos] order, so the
    paper's four originals win ties against the extensions). *)
val rank_joins : env -> (Plan.join_algo * float) list

(** {2 Per-operator estimation — the optimizer's cost stage}

    Where the closed forms above predict a whole query at once, [annotate]
    attaches the same components to the operators that will actually accrue
    them, writing one {!Op.est} per node of a lowered tree.  Pure
    arithmetic over {!Tb_statcore.Stat_catalog} statistics — no database
    access, no charges — and every ms figure passes through the catalog's
    per-key correction, which is how validate-stage feedback reaches the
    next optimization round. *)

(** The class an operator works over: with its opcode, the key its
    correction is kept under, so the two sides of a join correct
    independently. *)
val est_cls : Op.t -> string

(** The correction key for display: ["opcode/class"]. *)
val est_key : Op.t -> string

(** A class's extent statistics; empty when the catalog does not know the
    class. *)
val cat_extent : Tb_statcore.Stat_catalog.t -> string -> Tb_statcore.Stat_catalog.extent

(** Predicate selectivity from catalog statistics: the index's histogram
    window when an index covers the attribute, never below [floor];
    System-R magic numbers otherwise.  [floor] defaults to one row of the
    extent ({!annotate}'s floor); the closed forms pass [0.001]. *)
val pred_sel :
  ?floor:float -> Tb_statcore.Stat_catalog.t -> cls:string -> Plan.attr_pred -> float

(** The product of {!pred_sel} over a conjunction. *)
val preds_sel :
  ?floor:float -> Tb_statcore.Stat_catalog.t -> cls:string -> Plan.attr_pred list -> float

(** Bytes one row carries once [attrs] are harvested: its Rid plus each
    attribute's stored width. *)
val payload_bytes : Tb_statcore.Stat_catalog.t -> cls:string -> string list -> int

(** Write an estimate on every node of a lowered tree (bottom-up). *)
val annotate :
  stats:Tb_statcore.Stat_catalog.t -> ?organization:organization -> Op.t -> unit

(** Plan-level estimated elapsed ms over an annotated tree: a plain sum,
    except a Gather root takes the slowest lane plus its own shipping
    (fork/join, mirroring the simulated clock's lane model). *)
val plan_cost_ms : Op.t -> float
