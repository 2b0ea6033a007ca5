(** A miniature 007 benchmark (Carey, DeWitt & Naughton, SIGMOD 1993).

    The paper cites 007 as the benchmark object systems were tuned for:
    it "aims at comparing the performances of object-oriented systems, not
    the different strategies for object query evaluation" — it exercises
    "navigation down hierarchical structures but not alternative join
    evaluation of this navigation".  This module rebuilds 007's design
    hierarchy (module → complex assemblies → base assemblies → composite
    parts → atomic parts with a connection graph) on our engine, so the
    [oo7] bench can demonstrate *why* the Handle problem went undetected:
    the traversals object benchmarks measure run warm and allocation-free,
    while one associative sweep over the atomic parts exposes everything
    Section 4 diagnoses. *)

type config = {
  assembly_fanout : int;  (** children per complex assembly *)
  assembly_levels : int;  (** depth of the complex-assembly tree *)
  components_per_base : int;  (** composite parts per base assembly *)
  atomics_per_composite : int;  (** atomic parts per composite part *)
  connections : int;  (** outgoing connections per atomic part *)
  seed : int;
}

(** 007's "tiny" flavour: fanout 3, 4 levels, 3 components, 20 atomic
    parts, 3 connections. *)
val tiny : config

type built = {
  db : Tb_store.Database.t;
  cfg : config;
  design_root : Tb_storage.Rid.t;  (** the module's root complex assembly *)
  atomic_parts : Tb_storage.Rid.t array;  (** by id *)
  composite_parts : Tb_storage.Rid.t array;
  build_date_index : Tb_store.Index_def.t;  (** on AtomicPart.buildDate *)
}

(** [build ?cost cfg] creates the design database, composition-clustered
    (each composite part physically followed by its atomic parts, as OO
    databases cluster 007), cold. *)
val build : ?cost:Tb_sim.Cost_model.t -> config -> built

(** [traversal_t1 built] is 007's T1: depth-first sweep of the assembly
    hierarchy, visiting every atomic part of every composite part reached,
    following the connection graph part-to-part.  Returns the number of
    atomic-part visits. *)
val traversal_t1 : built -> int

(** [query_q ~frac built] is a 007-style associative query: count the
    atomic parts in the most recent [frac] (0..1) of build dates, through
    the build-date index. *)
val query_q : frac:float -> built -> int
