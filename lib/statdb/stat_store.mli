(** The benchmark-results database: record one [Stat] object per experiment
    (Section 3.3), query them back, export them.

    The store runs on its own simulated machine whose costs do not pollute
    the experiments being recorded. *)

type observation = {
  numtest : int;
  query_text : string;
  projection : string;
  selectivity : int;  (** percent, as in the paper's Query class *)
  cold : bool;
  database : string;  (** e.g. "2000x1000" *)
  cluster : string;  (** organization name *)
  algo : string;  (** "NL", "PHJ", "scan", ... *)
  server_cache_pages : int;
  client_cache_pages : int;
  elapsed_s : float;
  rpcs : int;
  rpc_pages : int;
  d2sc_reads : int;
  sc2cc_reads : int;
  cc_missrate : float;
  sc_missrate : float;
  cc_pagefaults : int;
}

type t

val create : unit -> t

(** The underlying object database (it answers the same OQL subset the
    benchmarks measure). *)
val db : t -> Tb_store.Database.t

(** [record t obs] creates the [Query], [System] (deduplicated) and [Stat]
    objects and returns the Stat's Rid. *)
val record : t -> observation -> Tb_storage.Rid.t

(** [register_extent t ~classname ~size ~links] declares an [Extent] object
    ([links] are (classname, linkratio) pairs to already-registered
    extents). Raises [Not_found] if a link target is unknown. *)
val register_extent :
  t -> classname:string -> size:int -> links:(string * int) list -> Tb_storage.Rid.t

val count : t -> int

(** All observations, in recording order. *)
val observations : t -> observation list

(** [query t oql] runs the OQL subset over the stats database, e.g.
    [select s.ElapsedTimeMs from s in Stats where s.numtest < 10]. *)
val query : t -> string -> Tb_query.Query_result.t

(** [record_estimates t ~numtest checks] stores each validate-stage
    reconciliation of a check list (e.g. the output of
    [Planner.run_optimized_explained]) as an [Estimate] object (ms rounded
    to integers, q-error in percent) and returns their Rids. *)
val record_estimates :
  t -> numtest:int -> Tb_query.Exec.est_check list -> Tb_storage.Rid.t list

(** CSV export (header + one line per stat) — the paper fed its results to
    data-analysis tools and Gnuplot; this is our conversion path.  Fields
    containing commas, double quotes or line breaks are RFC 4180 quoted. *)
val to_csv : t -> string

(** [csv_escape s] quotes one field the way {!to_csv} does (identity when
    no quoting is needed). *)
val csv_escape : string -> string

(** [csv_split record] splits one CSV record back into its fields,
    undoing {!csv_escape} — the round-trip inverse used by the tests.  A
    record whose quoted field embeds a newline is one string here. *)
val csv_split : string -> string list
