(* The optimizer's statistics catalog: everything the cost stage is allowed
   to know, snapshotted from maintained catalog state only.

   Every read here is charge-free by construction: cardinalities and page
   counts are Database bookkeeping, clustering / key bounds / histograms are
   the maintained Index_def fields refreshed at index build time.  Nothing
   in this module walks a page or touches the cache stack — treelint's R1
   keeps it that way (Stat_catalog is not in [charge_allowed]).

   The catalog also carries the validate stage's feedback: per-operator
   correction factors written back when an executed plan's accounted frame
   disagrees with its estimate by more than the q-error threshold.  The
   corrections live behind a shared ref so scaled per-shard views and the
   global view of one sharded database learn from the same observations. *)

module Database = Tb_store.Database
module Index_def = Tb_store.Index_def
module Schema = Tb_store.Schema

type extent = {
  x_cls : string;
  x_card : int;
  x_pages : int;
  x_rows_per_page : float;
  x_file : int;  (* heap-file id: detects classes sharing one file *)
}

type index = {
  i_def : Index_def.t;
  i_cls : string;
  i_attr : string;
  i_clustering : float;  (* maintained clustering factor, [0,1] *)
  i_lo : int;
  i_hi : int;
}

(* Multiplicative-with-offset correction: est' = raw * c_mul + c_add.  The
   additive leg exists for operators whose raw estimate is ~zero (a model
   blind spot), where no multiplier can reach the observed cost. *)
type corr = { c_mul : float; c_add : float }

(* One operator key's correction: the opcode and the class it works over,
   kept apart so a lookup compares them without building the key. *)
type entry = { e_op : string; e_cls : string; e_corr : corr }

type t = {
  cost : Tb_sim.Cost_model.t;
  client_cache_pages : int;
  schema : Schema.t;
  extents : extent list;
  indexes : index list;
  corrections : entry list ref;
  fed_back : int ref;
}

let analyze db =
  let sim = Database.sim db in
  let schema = Database.schema db in
  let extents =
    List.map
      (fun (c : Schema.cls) ->
        let cls = c.Schema.cls_name in
        let card = Database.cardinality db ~cls in
        let pages = Database.extent_pages db ~cls in
        {
          x_cls = cls;
          x_card = card;
          x_pages = pages;
          x_rows_per_page =
            (if pages = 0 then 0.0 else float_of_int card /. float_of_int pages);
          x_file =
            Tb_storage.Heap_file.file_id (Database.class_file db ~cls);
        })
      (Schema.classes schema)
  in
  let indexes =
    List.map
      (fun ix ->
        {
          i_def = ix;
          i_cls = ix.Index_def.cls;
          i_attr = ix.Index_def.attr;
          i_clustering = ix.Index_def.clustering;
          i_lo = ix.Index_def.lo_key;
          i_hi = ix.Index_def.hi_key;
        })
      (Database.indexes db)
  in
  {
    cost = sim.Tb_sim.Sim.cost;
    client_cache_pages =
      Tb_storage.Cache_stack.client_capacity (Database.stack db);
    schema;
    extents;
    indexes;
    corrections = ref [];
    fed_back = ref 0;
  }

let cost t = t.cost
let client_cache_pages t = t.client_cache_pages
let available_bytes t = Tb_sim.Cost_model.available_bytes t.cost

(* The cost stage looks these up at every operator and predicate, so the
   walks are top-level recursions: no closure, no option. *)
let rec extent_in cls = function
  | [] -> raise Not_found
  | e :: rest -> if String.equal e.x_cls cls then e else extent_in cls rest

let find_extent t ~cls = extent_in cls t.extents

let rec index_in cls attr = function
  | [] -> raise Not_found
  | i :: rest ->
      if String.equal i.i_cls cls && String.equal i.i_attr attr then i
      else index_in cls attr rest

let find_index t ~cls ~attr = index_in cls attr t.indexes

let is_clustered i = i.i_clustering >= 0.8

(* Fraction of the index's entries with key strictly below [k], from the
   maintained histogram (or the uniform assumption when none was built). *)
let selectivity_below i k = Index_def.selectivity_below i.i_def k

let shared_file t cls_a cls_b =
  match (find_extent t ~cls:cls_a, find_extent t ~cls:cls_b) with
  | a, b -> a.x_file = b.x_file
  | exception Not_found -> false

let attr_bytes t ~cls attr =
  match Schema.attr_type t.schema ~cls ~attr with
  | Schema.TInt -> 5
  | Schema.TString -> 21
  | Schema.TChar | Schema.TBool -> 2
  | Schema.TReal -> 9
  | Schema.TRef _ -> 9
  | Schema.TSet _ | Schema.TList _ | Schema.TTuple _ -> 16
  | exception Not_found -> 9

(* --- sharded views --- *)

(* One shard's view of an S-way partitioned database: 1/S of every extent's
   rows and pages, same indexes and histograms (every shard replicates the
   index set over its slice, and the uniform generators keep per-shard key
   distributions identical).  Corrections stay shared. *)
let scale t ~shards =
  if shards <= 1 then t
  else
    {
      t with
      extents =
        List.map
          (fun e ->
            {
              e with
              x_card = (e.x_card + shards - 1) / shards;
              x_pages = max 1 ((e.x_pages + shards - 1) / shards);
            })
          t.extents;
    }

(* The global view over per-shard catalogs: summed cardinalities and pages,
   widened key bounds.  Index selectivity functions come from the first
   shard (partitioning is row-wise, so per-shard key distributions match
   the global one).  Corrections are shared with the first catalog. *)
let merge ts =
  match ts with
  | [] -> invalid_arg "Stat_catalog.merge: empty"
  | first :: rest ->
      let sum_extent e =
        List.fold_left
          (fun acc t ->
            match find_extent t ~cls:e.x_cls with
            | e' -> (fst acc + e'.x_card, snd acc + e'.x_pages)
            | exception Not_found -> acc)
          (e.x_card, e.x_pages)
          rest
      in
      let extents =
        List.map
          (fun e ->
            let card, pages = sum_extent e in
            {
              e with
              x_card = card;
              x_pages = pages;
              x_rows_per_page =
                (if pages = 0 then 0.0
                 else float_of_int card /. float_of_int pages);
            })
          first.extents
      in
      let indexes =
        List.map
          (fun i ->
            List.fold_left
              (fun acc t ->
                match find_index t ~cls:i.i_cls ~attr:i.i_attr with
                | i' ->
                    {
                      acc with
                      i_lo = min acc.i_lo i'.i_lo;
                      i_hi = max acc.i_hi i'.i_hi;
                    }
                | exception Not_found -> acc)
              i rest)
          first.indexes
      in
      { first with extents; indexes }

(* --- validate-stage feedback --- *)

(* Shared by every key without a correction: a miss allocates nothing. *)
let identity = { c_mul = 1.0; c_add = 0.0 }

let rec correction_in op cls = function
  | [] -> identity
  | e :: rest ->
      if String.equal e.e_op op && String.equal e.e_cls cls then e.e_corr
      else correction_in op cls rest

let correction t ~op ~cls = correction_in op cls !(t.corrections)

(* Record a mis-estimate: scale the operator's correction so the corrected
   estimate reproduces [actual_ms] exactly on the next round.  When the
   (already corrected) estimate is ~zero the multiplier has nothing to act
   on, so the observation lands on the additive leg instead. *)
let observe t ~op ~cls ~est_ms ~actual_ms =
  let cur = correction t ~op ~cls in
  let next =
    if est_ms > 1e-3 then
      let f = actual_ms /. est_ms in
      { c_mul = cur.c_mul *. f; c_add = cur.c_add *. f }
    else { cur with c_add = actual_ms }
  in
  t.corrections :=
    { e_op = op; e_cls = cls; e_corr = next }
    :: List.filter
         (fun e -> not (String.equal e.e_op op && String.equal e.e_cls cls))
         !(t.corrections);
  incr t.fed_back

let fed_back t = !(t.fed_back)

let reset_corrections t =
  t.corrections := [];
  t.fed_back := 0
