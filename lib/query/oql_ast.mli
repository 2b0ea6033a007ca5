(** Abstract syntax for the OQL subset.

    Covers the query family the paper studies:

    {v
    select [p.name, pa.age]
    from p in Providers, pa in p.clients
    where pa.mrn < k1 and p.upin < k2
    v}

    i.e. select-from-where over named extents and dependent collections,
    with conjunctive comparison predicates and tuple-building projections. *)

type literal =
  | L_int of int
  | L_string of string
  | L_char of char
  | L_bool of bool
  | L_nil

type expr =
  | Const of literal
  | Var of string  (** a range variable: the object itself *)
  | Path of string * string  (** [p.name]: attribute of a range variable *)
  | Mk_tuple of (string * expr) list  (** [\[name: p.name, age: pa.age\]] *)

(** Aggregates fold the rows into one value instead of materializing the
    collection — sidestepping the ~0.6 ms/element result-construction cost
    Section 4.2 measures. *)
type agg = Count | Sum | Avg | Min | Max

(** What the [select] clause produces. *)
type projection = Rows of expr | Aggregate of agg * expr

type cmp = Lt | Le | Gt | Ge | Eq | Ne

type pred =
  | True
  | Cmp of expr * cmp * expr
  | And of pred * pred

type source =
  | Extent of string  (** a named root, e.g. [Providers] *)
  | Sub_collection of string * string  (** [p.clients]: set-valued attribute *)

type binding = { var : string; source : source }
type query = { select : projection; from : binding list; where : pred }

val literal_to_value : literal -> Tb_store.Value.t

(** [eval_cmp cmp a b] compares two primitive values.
    Raises [Invalid_argument] on incomparable values. *)
val eval_cmp : cmp -> Tb_store.Value.t -> Tb_store.Value.t -> bool

val agg_name : agg -> string
val pp_pred : Format.formatter -> pred -> unit
val pp_query : Format.formatter -> query -> unit

(** Conjuncts of a predicate, [True]s dropped. *)
val conjuncts : pred -> pred list
