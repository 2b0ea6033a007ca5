(** Index metadata: the catalog entry wrapping a {!Btree}.

    Keeps what the optimizer needs — which class and attribute the index
    covers, key bounds for uniform selectivity estimates, and the measured
    clustering factor (how well key order tracks physical order). *)

type t = {
  id : int;
  name : string;
  cls : string;
  attr : string;
  tree : Btree.t;
  mutable clustering : float;
  mutable keys : key_stats;
      (** replaced whole by {!refresh_stats} and {!build_histogram}, never
          edited, so a statistics snapshot may keep the record it read *)
}

(** What the optimizer reads of the key distribution: the smallest and
    largest indexed keys and the histogram, if one was built. *)
and key_stats = { ks_lo : int; ks_hi : int; ks_histogram : histogram option }

(** Equi-width histogram over the key domain — the kind of statistic the
    paper set out to identify for its cost model ("our first task was to
    find out what statistics the system should maintain"). *)
and histogram = { bucket_width : int; counts : int array; total : int }

val make : id:int -> name:string -> cls:string -> attr:string -> tree:Btree.t -> t

(** Recompute clustering factor and key bounds by walking the leaves. *)
val refresh_stats : t -> unit

(** [build_histogram t ~buckets] walks the leaves once and installs an
    equi-width histogram ([buckets] must be positive). *)
val build_histogram : t -> buckets:int -> unit

(** [key_window ks ~lo ~hi] estimates the fraction of entries with key in
    [\[lo, hi)] ([None] is unbounded) as the fraction below [hi] less the
    fraction below [lo]: each from the histogram when one was installed
    (with linear interpolation inside the boundary bucket), otherwise
    assuming uniform keys between the recorded bounds.  Unfloored. *)
val key_window : key_stats -> lo:int option -> hi:int option -> float

(** A clustered index: key order mostly follows physical order. *)
val is_clustered : t -> bool
