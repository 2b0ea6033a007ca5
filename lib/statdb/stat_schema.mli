(** The benchmark-results schema of Figure 3.

    "Large benchmark equals many numbers: why not use a database?"
    (Section 3.3) — the authors ended up storing every experiment as a
    [Stat] object in O2 itself.  We do the same: this schema is instantiated
    on our own object store, and the stored results can be queried back
    with the same OQL subset the benchmark measures. *)

val schema : Tb_store.Schema.t

val stat_cls : string
val query_cls : string
val extent_cls : string
val system_cls : string

(** The validate stage's audit trail: one object per reconciled operator
    (estimated vs actual ms, q-error in percent, whether it fed a
    correction back). *)
val estimate_cls : string

