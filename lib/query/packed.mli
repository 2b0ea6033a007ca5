(** Packed execution: offset programs over slotted-page record bytes.

    Compiles a predicate conjunction, join key and payload prefix against a
    class's schema slots into a flat program evaluated in place on the
    record bytes a packed Handle pins ({!Tb_store.Database.packed_buf}) — no Handle
    attribute walk, and no [Value.t] decode for rows a predicate rejects.

    Charge discipline: {!eval_preds}, {!eval_key} and {!make_payload}
    re-issue exactly the simulated charges of the Handle path
    ({!Operators.eval_preds} / [compile_key] / [make_payload]) in the same
    order, so switching paths never moves a counter.  {!seek} is
    charge-free host work.  This module is a charging kernel in the sense
    of treelint R1 (listed in [charge_allowed]) and the only query-layer
    module allowed raw byte reads (R5). *)

type prog

(** [compilable preds] — every predicate constant compares by raw bytes
    (ints and strings).  Pure; {!Planner.lower} consults this to pick the
    execution mode. *)
val compilable : Plan.attr_pred list -> bool

(** [compile db ~cls ?preds ?key ?attrs ()] resolves attribute names to
    schema slots and lays out the seek/evaluation program.  Raises
    [Invalid_argument] if a predicate constant is not compilable — callers
    must check {!compilable} first. *)
val compile :
  Tb_store.Database.t ->
  cls:string ->
  ?preds:Plan.attr_pred list ->
  ?key:Op.key_spec ->
  ?attrs:string list ->
  unit ->
  prog

(** [seek db prog h] records the byte position of every attribute the
    program needs, walking once from the Handle's first attribute,
    and returns the page buffer those positions index into — the [buf] the
    evaluators take.  Charge-free and allocation-free; must precede the
    evaluators for each row. *)
val seek : Tb_store.Database.t -> prog -> Tb_store.Handle.t -> bytes

(** [eval_preds db prog buf] evaluates the conjunction left to right with
    short-circuit, charging one compare and one get_att per predicate
    evaluated — exactly the Handle path's sequence. *)
val eval_preds : Tb_store.Database.t -> prog -> bytes -> bool

(** [eval_key db prog buf ~self] is the join key: [self] (charge-free)
    when the program was compiled with [K_self], otherwise the stored
    inverse reference (one get_att charge; {!Tb_storage.Rid.nil} on Nil;
    raises [Invalid_argument] when the attribute is not a reference — the
    Handle path's exact behaviour). *)
val eval_key :
  Tb_store.Database.t -> prog -> bytes -> self:Tb_storage.Rid.t -> Tb_storage.Rid.t

(** [make_payload db prog buf ~self] harvests the payload attributes in
    [attrs] order into a slot-ordered payload, one get_att charge per
    attribute. *)
val make_payload :
  Tb_store.Database.t -> prog -> bytes -> self:Tb_storage.Rid.t -> Op.payload
