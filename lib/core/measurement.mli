(** Running one experiment: a cold query execution with full metric
    capture.

    Every measured run reproduces the paper's protocol (Section 2): the
    server is shut down first so both caches are empty, the clock and
    counters are reset, and the result is a [Stat]-shaped record. *)

type t = {
  label : string;
  elapsed_s : float;
  result_count : int;
  disk_reads : int;
  disk_writes : int;
  rpcs : int;
  rpc_pages : int;
  sc2cc_reads : int;
  client_missrate : float;
  server_missrate : float;
  handle_allocs : int;
  handle_frees : int;
  handle_hits : int;
  comparisons : int;
  sort_comparisons : int;
  hash_inserts : int;
  hash_probes : int;
  result_appends : int;
  swap_faults : int;
  peak_working_bytes : int;
}

(** [run_cold db oql ~label ...] cold-restarts, executes, and captures. The
    optional arguments are passed to {!Tb_query.Planner.plan}. *)
val run_cold :
  ?organization:Tb_query.Estimate.organization ->
  ?force_algo:Tb_query.Plan.join_algo ->
  ?force_sorted:bool ->
  ?force_seq:bool ->
  label:string ->
  Tb_store.Database.t ->
  string ->
  t

(** Convert to a Figure-3 observation for the stats database. *)
val to_observation :
  t ->
  numtest:int ->
  query_text:string ->
  selectivity:int ->
  database:string ->
  cluster:string ->
  algo:string ->
  server_cache_pages:int ->
  client_cache_pages:int ->
  Tb_statdb.Stat_store.observation

val pp : Format.formatter -> t -> unit
