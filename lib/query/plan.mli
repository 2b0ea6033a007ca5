(** Physical plans and the binder that type-checks OQL onto a database.

    Two plan shapes cover the paper's workloads: single-extent selections
    (Sections 4.2-4.3) and the hierarchical parent/child join (Section 5)
    evaluated by one of the four algorithms NL / NOJOIN / PHJ / CHJ. *)

exception Unsupported of string

(** A conjunct of the form [var.attr CMP constant], already normalized. *)
type attr_pred = { attr : string; cmp : Oql_ast.cmp; const : Tb_store.Value.t }

(** How one extent is reached. *)
type access =
  | Seq_scan of { cls : string; preds : attr_pred list }
      (** full scan; all predicates evaluated through Handles (Figure 8
          left) *)
  | Index_scan of {
      index : Tb_store.Index_def.t;
      lo : int option;  (** inclusive *)
      hi : int option;  (** exclusive *)
      sorted : bool;
          (** sort the matching Rids before fetching — the Section 4.2
              optimization (Figure 8 right) *)
      residual : attr_pred list;
    }

type join_algo =
  | NL  (** parent-to-child navigation *)
  | NOJOIN  (** child-to-parent navigation *)
  | PHJ  (** hash the parents and join *)
  | CHJ  (** hash the children and join *)
  | PHHJ
      (** hybrid PHJ: partitions that exceed memory spill to disk instead
          of swapping — the fix the paper names but never tested *)
  | CHHJ  (** hybrid CHJ *)
  | SMJ
      (** pointer-based sort-merge — the family the authors "started
          testing [...] but they proved to be worse than hash-based ones" *)

type t =
  | Selection of {
      var : string;
      cls : string;
      access : access;
      select : Oql_ast.expr;
      aggregate : Oql_ast.agg option;
    }
  | Hier_join of {
      algo : join_algo;
      parent_var : string;
      parent_cls : string;
      child_var : string;
      child_cls : string;
      set_attr : string;  (** parent's collection of children (NL) *)
      inv_attr : string option;
          (** child's back-reference (all algorithms except NL) *)
      parent_access : access;
      child_access : access;
      partitions : int;
          (** hybrid hashing: how many partitions the build side is split
              into (1 = everything stays in memory) *)
      select : Oql_ast.expr;
      aggregate : Oql_ast.agg option;
    }

(** {2 Binding} *)

(** The semantic shape of a bound query, before access paths and algorithms
    are chosen. *)
type bound =
  | B_selection of {
      var : string;
      cls : string;
      preds : attr_pred list;
      select : Oql_ast.expr;
      aggregate : Oql_ast.agg option;
    }
  | B_hier of {
      parent_var : string;
      parent_cls : string;
      child_var : string;
      child_cls : string;
      set_attr : string;
      inv_attr : string option;
      parent_preds : attr_pred list;
      child_preds : attr_pred list;
      select : Oql_ast.expr;
      aggregate : Oql_ast.agg option;
    }

(** [bind db q] resolves extents against the schema roots, splits the
    predicate per range variable, and infers the child→parent inverse
    attribute from the schema when one exists.
    Raises {!Unsupported} on queries outside the subset and on every name
    that does not resolve — an unknown extent, variable or attribute, in
    the predicate or the projection — so a bad name fails before any
    charge. *)
val bind : Tb_store.Database.t -> Oql_ast.query -> bound

(** {2 Helpers shared with the executor and planner} *)

(** [key_range pred] is the (lo, hi) window (inclusive, exclusive) an
    integer comparison pins down, or [None] for non-integer predicates. *)
val key_range : attr_pred -> (int option * int option) option

(** Attributes of [var] the expression reads, and whether it uses the
    object itself. *)
val needed_attrs : string -> Oql_ast.expr -> string list * bool

val algo_name : join_algo -> string
val pp : Format.formatter -> t -> unit
