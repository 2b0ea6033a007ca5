(** Stage one of the optimizer pipeline: the candidate space.

    Expands a bound query into every (join algorithm × access path per
    side × packed/handle mode) plan the lowering can execute, in an order
    that encodes the tie policy — the cost stage's argmin keeps the first
    candidate on equal cost, so index paths precede scans, the paper's
    algorithms keep {!Estimate.all_algos} order, and packed precedes
    handle evaluation.  Pure catalog arithmetic: no page access, no
    charges. *)

type candidate = {
  c_plan : Plan.t;
  c_packed : bool;  (** lower with packed-bytes evaluation *)
  c_desc : string;
      (** human-readable shape, e.g. ["PHJ parent=index child=seq packed"] *)
}

(** The full candidate list for a bound query.  Inverse-requiring
    algorithms are dropped when the schema declares no back-reference;
    NL's child side and NOJOIN's parent side stay scans (their predicates
    are evaluated during navigation). *)
val candidates : Tb_statcore.Stat_catalog.t -> Plan.bound -> candidate list

(** {2 Shared with the closed-form planner} *)

(** The conjuncts an index can answer: each with its index and key
    window, in conjunct order. *)
val indexable :
  Tb_statcore.Stat_catalog.t ->
  cls:string ->
  Plan.attr_pred list ->
  (Plan.attr_pred * Tb_statcore.Stat_catalog.index * int option * int option) list

(** The most selective indexable conjunct under [sel] (the first on a tie),
    as an index scan with the other conjuncts residual; [None] when no
    conjunct is indexable.  Each chooser passes its own selectivity. *)
val best_index :
  sel:(Plan.attr_pred -> float) ->
  Tb_statcore.Stat_catalog.t ->
  cls:string ->
  Plan.attr_pred list ->
  (sorted:bool -> Plan.access) option

(** Estimated resident bytes of one join side's hash table: selected rows
    times payload plus table overheads.  [floor] is passed to
    {!Estimate.preds_sel}. *)
val side_bytes :
  ?floor:float ->
  Tb_statcore.Stat_catalog.t ->
  cls:string ->
  var:string ->
  preds:Plan.attr_pred list ->
  Oql_ast.expr ->
  float

(** Hybrid-hash partitions for a build side of [bytes]: enough that each
    spilled bucket fits in 80% of the RAM budget (8 when there is none). *)
val partitions_for : Tb_statcore.Stat_catalog.t -> float -> int
