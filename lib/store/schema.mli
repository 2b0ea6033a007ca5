(** Database schemas: classes, attribute types, named roots.

    Mirrors the paper's Figure 1 structure: classes ([Provider], [Patient])
    with typed attributes, and names binding extents ([Providers],
    [Patients]) to set types — persistence by attachment to names, as in
    ODMG. *)

type ty =
  | TInt
  | TReal
  | TBool
  | TChar
  | TString
  | TRef of string  (** reference to an object of the named class *)
  | TSet of ty
  | TList of ty
  | TTuple of (string * ty) list

type cls = { cls_name : string; attrs : (string * ty) list }

type t

(** [make ~classes ~roots] validates that referenced classes exist, class
    names are unique, and root types are well formed.
    Raises [Invalid_argument] otherwise. *)
val make : classes:cls list -> roots:(string * ty) list -> t

val classes : t -> cls list
val roots : t -> (string * ty) list

(** [find_class t name] — raises [Not_found] if absent. *)
val find_class : t -> string -> cls

(** Stable small integer for on-disk object headers. *)
val class_id : t -> string -> int

val class_of_id : t -> int -> cls

(** {2 Compiled attribute slots}

    Attribute positions in schema order, compiled once by {!make}.  A slot
    is both the index into the class's on-disk field sequence and into a
    Handle's memo array. *)

val attr_count : t -> class_id:int -> int

(** [attr_slot t ~class_id ~attr] — raises [Not_found] if the class has no
    such attribute. *)
val attr_slot : t -> class_id:int -> attr:string -> int

(** [attr_type t ~cls ~attr] — raises [Not_found] if the class or attribute
    is unknown. *)
val attr_type : t -> cls:string -> attr:string -> ty

(** [conforms t ty v] checks a value against a type.  [Nil] conforms to any
    reference type (a retired doctor's patients point nowhere). [Big_set]
    conforms to set types. *)
val conforms : t -> ty -> Value.t -> bool

