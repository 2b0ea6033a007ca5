(** ODMG-style values.

    O2 implements the full ODMG model: objects, arbitrarily nested complex
    values (tuples, sets, lists), literals and references.  Values here are
    what gets encoded into heap-file records; references are physical
    {!Tb_storage.Rid}s.  Sets small enough to live inside their owner are
    [Set]; collections whose encoding exceeds a page threshold are spilled
    into a separate collection file and represented by [Big_set] (Section 2:
    "collections whose size is over 4K ... are always stored in a separate
    file"). *)

type t =
  | Nil
  | Int of int
  | Real of float
  | Bool of bool
  | Char of char
  | String of string
  | Ref of Tb_storage.Rid.t
  | Tuple of (string * t) list
  | Set of t list
  | List of t list
  | Big_set of Tb_storage.Rid.t
      (** head chunk of a spilled collection — see {!Big_collection} *)

(** [assoc name pairs] is the value paired with the first [name] in
    [pairs], compared with [String.equal]; raises [Not_found].  The
    monomorphic [List.assoc] for the name-keyed lists of the engine (tuple
    fields, environments, stowed attributes, schema roots). *)
val assoc : string -> (string * 'a) list -> 'a

(** [field v name] extracts a tuple field.
    Raises [Invalid_argument] if [v] is not a tuple or lacks the field. *)
val field : t -> string -> t

(** [set_field v name x] returns the tuple with [name] rebound to [x]. *)
val set_field : t -> string -> t -> t

(** Typed projections; raise [Invalid_argument] on the wrong constructor. *)
val to_int : t -> int

val to_char : t -> char
val to_string_exn : t -> string
val to_ref : t -> Tb_storage.Rid.t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
