(** Physical operator trees — the Volcano-style decomposition of the seven
    paper algorithms, with per-operator cost accounting.

    A {!t} is an instrumented operator node: the planner lowers a {!Plan.t}
    into a tree of these ({!Planner.lower}), the interpreter in {!Exec}
    drives it, and each node's {!frame} records the rows that flowed
    through it and the slice of the simulated cost model it is
    responsible for.  Frames are run state: {!make} builds shape only, on
    one shared empty frame, and {!attach_frames} gives a tree chosen to
    run its own ({!Planner.lower}, or {!Planner.optimize}'s winner).  A
    run rejects a node without one ({!reset_frames}).  Attribution is
    read-only ({!Acct} diffs the global {!Tb_sim.Counters} between frame
    switches), so the charge stream — and the golden counter fingerprint —
    is identical whether or not anyone looks at the explain output. *)

(** A join side is visible either as a live Handle or as information stowed
    in a hash table / sort run (Section 5).  The stowed information is a
    payload: the object's identity and the values of the attributes the
    projection reads, in the order of the harvesting operator's [attrs]
    (the {!Harvest} node keeps the names, once). *)
type payload = {
  self : Tb_storage.Rid.t;
  vals : Tb_store.Value.t array;  (** slot-ordered: [vals.(i)] is [attrs.(i)] *)
}

(** How a row binds one plan variable.  Which source each variable has is
    fixed by the operator that emits the row, so the executor resolves it
    once per query, never per row. *)
type source =
  | Live of string
      (** a pinned Handle of this class, in the [live] register cell *)
  | Stored of string list
      (** a payload in the [stored] cell, its [vals] in this attribute
          order *)
  | Ident  (** the object's Rid only, in the [ident] cell (covering Fetch) *)

(** A row as a register file: one cell per plan variable in each array,
    indexed by the variable's register.  Operators write their cells and
    push downstream depth-first, so nothing keeps a row past the emit
    call and one register file is reused for every row of a run. *)
type regs = {
  live : Tb_store.Handle.t array;
  stored : payload array;
  ident : Tb_storage.Rid.t array;
}

(** [make_regs n] — a register file for [n] plan variables. *)
val make_regs : int -> regs

(** How an operator derives the join key from a live Handle. *)
type key_spec =
  | K_self  (** the object's own Rid (parents) *)
  | K_inverse of string  (** the inverse reference attribute (children) *)

(** How Fetch/Harvest evaluate their per-row work.  Charges are identical
    either way; the planner picks [Packed] whenever the predicates are
    packed-compilable ({!Packed.compilable}). *)
type mode =
  | Packed  (** offset program straight on the record's page bytes *)
  | Handle  (** attribute decode through {!Tb_store.Database.get_att_slot} *)

(** Simulated ms, in a float-only record so that the executor's updates
    store the float unboxed. *)
type ms_cell = { mutable ms : float }

(** Per-operator instrumentation, mutated by the executor only. *)
type frame = {
  mutable rows_in : int;
  mutable rows_out : int;
  mutable handles : int;
  mutable pages_read : int;
  mutable pages_written : int;
  mutable get_atts : int;
  mutable cmps : int;
  mutable hash_ops : int;
  mutable sort_cmps : int;
  mutable bytes : int;
  clock : ms_cell;  (** simulated clock advanced while live *)
}

type kind =
  | Seq_scan of { cls : string }
  | Index_scan of {
      index : Tb_store.Index_def.t;
      lo : int option;
      hi : int option;
    }
  | Sort_rids of { child : t }
  | Fetch of {
      child : t;
      cls : string;
      var : string;
      preds : Plan.attr_pred list;
      covering : bool;
      mode : mode;
    }
  | Nav_set of {
      child : t;
      set_attr : string;
      owner_cls : string;
      nav_var : string;
      nav_cls : string;
      preds : Plan.attr_pred list;
    }
  | Nav_inverse of {
      child : t;
      inv_attr : string;
      owner_cls : string;
      nav_var : string;
      nav_cls : string;
      preds : Plan.attr_pred list;
    }
  | Harvest of {
      child : t;
      key : key_spec;
      cls : string;
      attrs : string list;
      mode : mode;
    }
  | Hash_build of { child : t }
  | Spill_partition of { child : t; partitions : int }
  | Hash_probe of {
      build : t;
      probe : t;
      probe_key : key_spec;
      probe_cls : string;
      build_var : string;
      probe_var : string;
    }
  | Sort of { child : t }
  | Merge of { left : t; right : t; left_var : string; right_var : string }
  | Project of { child : t; select : Oql_ast.expr }
  | Materialize of { child : t; aggregate : Oql_ast.agg option }
  | Shard_lane of { child : t; shard : int; shards : int }
      (** one shard's subplan, run on that shard's clock lane *)
  | Exchange of { child : t; shards : int; part_key : string }
      (** hash-repartition the child's rows across shard lanes *)
  | Gather of {
      lanes : t array;
      shards : int;
      part_key : string;
      ordered : bool;
    }
      (** merge N shard lanes; order-preserving for sorted inputs.  The
          merge loop itself never charges — shipping and merge comparisons
          are charged at this node by the executor. *)

and t = { kind : kind; mutable frame : frame; mutable est : est option }

(** The cost stage's per-operator prediction ({!Estimate.annotate} writes
    it, {!Est} compares it against the accounted frame). *)
and est = {
  est_rows : float;
  est_pages : float;
  est_handles : float;
  est_ms : float;
}

val make : kind -> t

(** [has_frame n]: [n] owns a frame of its own. *)
val has_frame : t -> bool

(** Give every node still on the shared frame a fresh one of its own;
    returns the tree. *)
val attach_frames : t -> t

(** Zero every frame in the tree (the executor does this before a run, so a
    tree can be executed repeatedly).  Raises [Invalid_argument] on a node
    without a frame of its own: the tree was never given its frames. *)
val reset_frames : t -> unit

(** Pre-order traversal. *)
val iter : (t -> unit) -> t -> unit

(** Bare constructor name, e.g. ["hash_probe"] — stable, used by the
    fingerprint suffix. *)
val opcode : t -> string

(** Human-readable one-line description with arguments. *)
val label : t -> string

(** The lowered tree shape, one indented line per operator (the lowering
    snapshots pin this down). *)
val pp_tree : Format.formatter -> t -> unit

(** {2 Reconciliation}

    The counter deltas the whole run produced, in the fields the explain
    report shows.  {!Exec.run_explained} measures them globally; summing
    the frames must give the same numbers (exact for the integer columns,
    within float epsilon for the simulated ms). *)
type totals = {
  t_handles : int;
  t_pages_read : int;
  t_pages_written : int;
  t_get_atts : int;
  t_cmps : int;
  t_hash_ops : int;
  t_sort_cmps : int;
  t_ms : float;
}

val reconciles : global:totals -> t -> bool

(** The EXPLAIN ANALYZE rendering: one row per operator plus an
    operator-totals row, the global-counter-deltas row and a reconciliation
    verdict. *)
val pp_report : global:totals -> Format.formatter -> t -> unit

(** {2 Charge attribution}

    The executor's accounting context: a rolling snapshot of the reported
    counters plus the simulated clock.  [enter acct frame] attributes
    everything accrued since the last switch to the previously-current
    frame; it reads the counters but never writes them. *)
module Acct : sig
  type acct

  val create : Tb_sim.Sim.t -> frame -> acct
  val enter : acct -> frame -> unit

  (** Attribute the tail of the run to the current frame. *)
  val flush : acct -> unit
end

(** {2 Estimates}

    The cost stage's mirror of {!Acct}: where Acct attributes what actually
    accrued to each operator, Est carries what the optimizer predicted.
    Both hang off the same node, so the validate stage can compute
    per-operator q-errors and the [--optimize --explain] report can print
    the two columns side by side. *)
module Est : sig
  val set : t -> est -> unit
  val get : t -> est option

  (** q-error [max (est/actual, actual/est)], both sides floored at
      0.01 ms so near-zero pairs compare as exact. *)
  val q : est:float -> actual:float -> float

  (** Sum of the tree's estimated ms (barrier semantics are
      {!Estimate.plan_cost_ms}'s job — this is the plain sum). *)
  val sum_ms : t -> float

  (** Estimated-vs-actual rendering: per-operator est/actual columns with
      q-errors, plan totals, and the worst per-operator q-error. *)
  val pp_report : global:totals -> Format.formatter -> t -> unit
end
