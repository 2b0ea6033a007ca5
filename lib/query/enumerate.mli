(** Stage one of the optimizer pipeline: the candidate space.

    Expands a bound query into every (join algorithm × access path per
    side) plan the lowering can execute, in an order that encodes the tie
    policy — the cost stage's argmin keeps the first candidate on equal
    cost, so index paths precede scans and the paper's algorithms keep
    {!Estimate.all_algos} order.  The evaluation mode is expanded by the
    cost stage, which costs each plan once.  Pure catalog arithmetic: no
    page access, no charges. *)

(** The full plan list for a bound query.  Inverse-requiring algorithms
    are dropped when the schema declares no back-reference; NL's child
    side and NOJOIN's parent side stay scans (their predicates are
    evaluated during navigation). *)
val candidates : Tb_statcore.Stat_catalog.t -> Plan.bound -> Plan.t list

(** Human-readable shape of an enumerated plan evaluated packed or
    through Handles, e.g. ["PHJ parent=index child=seq packed"] or
    ["index+sort handle"]. *)
val describe : Plan.t -> packed:bool -> string

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
