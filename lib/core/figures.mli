(** Regeneration of every table and figure in the paper's evaluation, plus
    the ablations DESIGN.md calls out.

    All experiments run at [1/scale] of the paper's cardinalities with
    memory scaled identically, so page/cache and table/RAM ratios — and
    therefore winners and crossovers — are preserved.  Simulated times are
    roughly [1/scale] of the paper's seconds.

    Every measured run is also recorded as a [Stat] object in the context's
    stats database (Section 3.3, dogfooded). *)

type ctx

(** [create ~scale] — [scale] must be positive; the paper's own size is
    [scale = 1]. *)
val create : scale:int -> ctx

val stats : ctx -> Tb_statdb.Stat_store.t

(** Names accepted by {!by_name}: the paper's figures ([fig6] ... [fig15]),
    the ablations and extensions, and [all]. *)
val names : string list

(** [by_name name] is the driver that prints that figure's table(s) to a
    formatter — raises [Not_found] for unknown names. *)
val by_name : string -> ctx -> Format.formatter -> unit
