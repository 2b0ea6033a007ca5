module Sc = Tb_statcore.Stat_catalog

(* --- statistics: one catalog snapshot per [plan] call --- *)

(* The closed forms never let an index window select less than 0.1%. *)
let sel_floor = 0.001

(* Choose the most selective indexable conjunct; the rest stay residual. *)
let choose_access stats ~cls ~preds ~sorted ~force_seq =
  match
    if force_seq then None
    else
      Enumerate.best_index
        ~sel:(Estimate.pred_sel ~floor:sel_floor stats ~cls)
        stats ~cls preds
  with
  | Some index_scan -> index_scan ~sorted
  | None -> Plan.Seq_scan { cls; preds }

let make_side stats ~cls ~preds ~payload =
  let e = Estimate.cat_extent stats cls in
  (* Clustering is read off the first indexable conjunct's index, which
     need not be the one [choose_access] picks. *)
  let has_index, index_clustered =
    match Enumerate.indexable stats ~cls preds with
    | (_, ix, _, _) :: _ -> (true, Sc.is_clustered ix)
    | [] -> (false, false)
  in
  {
    Estimate.card = e.Sc.x_card;
    pages = e.Sc.x_pages;
    sel = Estimate.preds_sel ~floor:sel_floor stats ~cls preds;
    has_index;
    index_clustered;
    payload_bytes = payload;
  }

let side_env stats ~organization ~parent ~child ~fanout ~result_bytes_per_row =
  {
    Estimate.cost = Sc.cost stats;
    organization;
    client_cache_pages = Sc.client_cache_pages stats;
    parent;
    child;
    fanout;
    result_bytes_per_row;
  }

let default_organization stats ~parent_cls ~child_cls =
  if Sc.shared_file stats parent_cls child_cls then Estimate.Shared_random
  else Estimate.Separate_files

let join_env stats bound ~organization =
  match bound with
  | Plan.B_selection _ -> invalid_arg "Planner.join_env: not a join"
  | Plan.B_hier
      {
        parent_var;
        parent_cls;
        child_var;
        child_cls;
        parent_preds;
        child_preds;
        select;
        _;
      } ->
      let side ~cls ~var ~preds =
        let attrs, _self = Plan.needed_attrs var select in
        make_side stats ~cls ~preds
          ~payload:(Estimate.payload_bytes stats ~cls attrs)
      in
      let parent = side ~cls:parent_cls ~var:parent_var ~preds:parent_preds in
      let child = side ~cls:child_cls ~var:child_var ~preds:child_preds in
      side_env stats ~organization ~parent ~child
        ~fanout:
          (if parent.Estimate.card = 0 then 0.0
           else float_of_int child.Estimate.card /. float_of_int parent.Estimate.card)
        ~result_bytes_per_row:
          (parent.Estimate.payload_bytes + child.Estimate.payload_bytes + 16)

(* --- plan construction --- *)

let selection_access stats ~force_sorted ~force_seq ~cls ~preds =
  match force_sorted with
  | Some sorted -> choose_access stats ~cls ~preds ~sorted ~force_seq
  | None -> (
      let side = make_side stats ~cls ~preds ~payload:16 in
      let env =
        side_env stats ~organization:Estimate.Separate_files ~parent:side
          ~child:side ~fanout:0.0 ~result_bytes_per_row:24
      in
      (* Sorting the Rids is the Section 4.2 win; cost it both ways. *)
      let sorted =
        Estimate.selection_index_ms env ~sorted:true
        <= Estimate.selection_index_ms env ~sorted:false
      in
      (* Fall back to the scan when the index loses (the 1%-5% crossover
         of Section 4.2). *)
      match choose_access stats ~cls ~preds ~sorted ~force_seq with
      | Plan.Index_scan _
        when Estimate.selection_seq_ms env < Estimate.selection_index_ms env ~sorted ->
          Plan.Seq_scan { cls; preds }
      | access -> access)

let join_plan stats ~organization ~force_algo ~force_sorted ~force_seq bound =
  match bound with
  | Plan.B_selection _ -> assert false
  | Plan.B_hier
      {
        parent_var;
        parent_cls;
        child_var;
        child_cls;
        set_attr;
        inv_attr;
        parent_preds;
        child_preds;
        select;
        aggregate;
      } ->
      let algo =
        match force_algo with
        | Some a -> a
        | None -> (
            let organization =
              match organization with
              | Some o -> o
              | None -> default_organization stats ~parent_cls ~child_cls
            in
            let viable (a, _) =
              match a with
              | Plan.NL -> true
              | Plan.NOJOIN | Plan.PHJ | Plan.CHJ | Plan.PHHJ | Plan.CHHJ
              | Plan.SMJ ->
                  Option.is_some inv_attr
            in
            match
              List.filter viable
                (Estimate.rank_joins (join_env stats bound ~organization))
            with
            | (a, _) :: _ -> a
            | [] -> Plan.NL)
      in
      let partitions =
        Enumerate.partitions_for stats
          (match algo with
          | Plan.PHHJ ->
              Enumerate.side_bytes ~floor:sel_floor stats ~cls:parent_cls
                ~var:parent_var ~preds:parent_preds select
          | Plan.CHHJ ->
              Enumerate.side_bytes ~floor:sel_floor stats ~cls:child_cls
                ~var:child_var ~preds:child_preds select
          | Plan.NL | Plan.NOJOIN | Plan.PHJ | Plan.CHJ | Plan.SMJ -> 0.0)
      in
      let sorted = Option.value force_sorted ~default:true in
      let idx cls preds = choose_access stats ~cls ~preds ~sorted ~force_seq in
      let seq cls preds = Plan.Seq_scan { cls; preds } in
      let parent_access, child_access =
        match algo with
        | Plan.NL -> (idx parent_cls parent_preds, seq child_cls child_preds)
        | Plan.NOJOIN -> (seq parent_cls parent_preds, idx child_cls child_preds)
        | Plan.PHJ | Plan.CHJ | Plan.PHHJ | Plan.CHHJ | Plan.SMJ ->
            (idx parent_cls parent_preds, idx child_cls child_preds)
      in
      Plan.Hier_join
        {
          algo;
          parent_var;
          parent_cls;
          child_var;
          child_cls;
          set_attr;
          inv_attr;
          parent_access;
          child_access;
          partitions;
          select;
          aggregate;
        }

let plan ?organization ?force_algo ?force_sorted ?(force_seq = false) db q =
  let bound = Plan.bind db q in
  let stats = Sc.analyze db in
  match bound with
  | Plan.B_selection { var; cls; preds; select; aggregate } ->
      let access = selection_access stats ~force_sorted ~force_seq ~cls ~preds in
      Plan.Selection { var; cls; access; select; aggregate }
  | Plan.B_hier _ ->
      join_plan stats ~organization ~force_algo ~force_sorted ~force_seq bound

(* --- lowering: Plan.t -> physical operator tree --- *)

(* Lowering is pure plan surgery: attribute names stay symbolic (the
   executor resolves slots once per operator), so no database access — and
   in particular no charge — happens here. *)

let access_preds = function
  | Plan.Seq_scan { preds; _ } -> preds
  | Plan.Index_scan { residual; _ } -> residual

let lower_access access =
  match access with
  | Plan.Seq_scan { cls; _ } -> Op.make (Op.Seq_scan { cls })
  | Plan.Index_scan { cls; attr; lo; hi; sorted; _ } ->
      let scan = Op.make (Op.Index_scan { cls; attr; lo; hi }) in
      if sorted then Op.make (Op.Sort_rids { child = scan }) else scan

let require_inv = function
  | Some attr -> attr
  | None ->
      raise
        (Plan.Unsupported
           "this algorithm navigates child-to-parent but the schema declares \
            no inverse reference")

let make_finish ~select ~aggregate env_op =
  Op.make
    (Op.Materialize
       { child = Op.make (Op.Project { child = env_op; select }); aggregate })

(* A Fetch that binds [var] to each surviving object of [access].  The
   covering shortcut — skip Handles entirely when the access path
   absorbed every predicate and the query only uses the object's
   identity — is only sound for selections; join sides always need
   attribute or set access.  The packed mode is chosen from the residual
   predicates alone ({!Packed.compilable}), keeping lowering pure. *)
let make_fetch ~packed ?(covering = false) access ~cls ~var =
  let preds = access_preds access in
  let mode =
    if packed && Packed.compilable preds then Op.Packed else Op.Handle
  in
  Op.make
    (Op.Fetch { child = lower_access access; cls; var; preds; covering; mode })

(* Keys and payload prefixes are always packed-compilable; [~mode] is
   forced to Handle for hybrid probe-side harvests, which the hybrid
   driver evaluates through the Handle kernels. *)
let make_harvest ~packed ?mode side ~key ~cls ~var select =
  let mode =
    match mode with
    | Some m -> m
    | None -> if packed then Op.Packed else Op.Handle
  in
  let attrs, _self = Plan.needed_attrs var select in
  Op.make (Op.Harvest { child = side; key; cls; attrs; mode })

(* [packed:false] builds the Handle reference twin only [lower] exposes. *)
let shape_mode ~packed plan =
  let finish = make_finish in
  let fetch ?covering access ~cls ~var =
    make_fetch ~packed ?covering access ~cls ~var
  in
  let harvest ?mode side ~key ~cls ~var select =
    make_harvest ~packed ?mode side ~key ~cls ~var select
  in
  match plan with
  | Plan.Selection { var; cls; access; select; aggregate } ->
      let covering =
        match (access_preds access, Plan.needed_attrs var select) with
        | [], ([], _) -> true
        | _ -> false
      in
      finish ~select ~aggregate (fetch ~covering access ~cls ~var)
  | Plan.Hier_join
      {
        algo;
        parent_var;
        parent_cls;
        child_var;
        child_cls;
        set_attr;
        inv_attr;
        parent_access;
        child_access;
        partitions;
        select;
        aggregate;
      } -> (
      let parent_fetch () =
        fetch parent_access ~cls:parent_cls ~var:parent_var
      in
      let child_fetch () = fetch child_access ~cls:child_cls ~var:child_var in
      let parent_harvest ?mode () =
        harvest ?mode (parent_fetch ()) ~key:Op.K_self ~cls:parent_cls
          ~var:parent_var select
      in
      let child_harvest ?mode () =
        harvest ?mode
          (child_fetch ())
          ~key:(Op.K_inverse (require_inv inv_attr))
          ~cls:child_cls ~var:child_var select
      in
      let partitions = max 1 partitions in
      match algo with
      | Plan.NL ->
          (* NL cannot use the child index: the child side's predicates
             are evaluated during navigation. *)
          let child_preds =
            match child_access with
            | Plan.Seq_scan { preds; _ } -> preds
            | Plan.Index_scan _ ->
                invalid_arg "Exec: NL child access must be a scan"
          in
          finish ~select ~aggregate
            (Op.make
               (Op.Nav_set
                  {
                    child = parent_fetch ();
                    set_attr;
                    owner_cls = parent_cls;
                    nav_var = child_var;
                    nav_cls = child_cls;
                    preds = child_preds;
                  }))
      | Plan.NOJOIN ->
          let parent_preds =
            match parent_access with
            | Plan.Seq_scan { preds; _ } -> preds
            | Plan.Index_scan _ ->
                invalid_arg "Exec: NOJOIN parent access must be a scan"
          in
          finish ~select ~aggregate
            (Op.make
               (Op.Nav_inverse
                  {
                    child = child_fetch ();
                    inv_attr = require_inv inv_attr;
                    owner_cls = child_cls;
                    nav_var = parent_var;
                    nav_cls = parent_cls;
                    preds = parent_preds;
                  }))
      | Plan.PHJ ->
          finish ~select ~aggregate
            (Op.make
               (Op.Hash_probe
                  {
                    build = Op.make (Op.Hash_build { child = parent_harvest () });
                    probe = child_fetch ();
                    probe_key = Op.K_inverse (require_inv inv_attr);
                    probe_cls = child_cls;
                    build_var = parent_var;
                    probe_var = child_var;
                  }))
      | Plan.CHJ ->
          finish ~select ~aggregate
            (Op.make
               (Op.Hash_probe
                  {
                    build = Op.make (Op.Hash_build { child = child_harvest () });
                    probe = parent_fetch ();
                    probe_key = Op.K_self;
                    probe_cls = parent_cls;
                    build_var = child_var;
                    probe_var = parent_var;
                  }))
      | Plan.PHHJ ->
          finish ~select ~aggregate
            (Op.make
               (Op.Hash_probe
                  {
                    build =
                      Op.make
                        (Op.Hash_build
                           {
                             child =
                               Op.make
                                 (Op.Spill_partition
                                    { child = parent_harvest (); partitions });
                           });
                    probe =
                      Op.make
                        (Op.Spill_partition
                           { child = child_harvest ~mode:Op.Handle (); partitions });
                    probe_key = Op.K_inverse (require_inv inv_attr);
                    probe_cls = child_cls;
                    build_var = parent_var;
                    probe_var = child_var;
                  }))
      | Plan.CHHJ ->
          finish ~select ~aggregate
            (Op.make
               (Op.Hash_probe
                  {
                    build =
                      Op.make
                        (Op.Hash_build
                           {
                             child =
                               Op.make
                                 (Op.Spill_partition
                                    { child = child_harvest (); partitions });
                           });
                    probe =
                      Op.make
                        (Op.Spill_partition
                           { child = parent_harvest ~mode:Op.Handle (); partitions });
                    probe_key = Op.K_self;
                    probe_cls = parent_cls;
                    build_var = child_var;
                    probe_var = parent_var;
                  }))
      | Plan.SMJ ->
          finish ~select ~aggregate
            (Op.make
               (Op.Merge
                  {
                    left = Op.make (Op.Sort { child = parent_harvest () });
                    right = Op.make (Op.Sort { child = child_harvest () });
                    left_var = parent_var;
                    right_var = child_var;
                  })))

let shape plan = shape_mode ~packed:true plan

(* A tree lowered to run gets its frames here; [optimize] costs shapes. *)
let lower ?(packed = true) plan = Op.attach_frames (shape_mode ~packed plan)

(* --- sharded lowering: Plan.t -> Gather over per-shard subtrees --- *)

module Shard_map = Tb_store.Shard_map

let key_name = function Op.K_self -> "self" | Op.K_inverse a -> a

(* One shard's lane of an exchange (hash-join) plan: both sides harvested
   locally, routed through Exchange by retagged join key, rebuilt and
   probed on the destination.  PHHJ/CHHJ degenerate to their in-memory
   cousins — repartitioning already splits the build side S ways, which is
   exactly the memory-pressure relief the spill partitions bought. *)
let hash_lane ~shards ~shard plan =
  match plan with
  | Plan.Hier_join
      {
        algo;
        parent_var;
        parent_cls;
        child_var;
        child_cls;
        inv_attr;
        parent_access;
        child_access;
        select;
        aggregate;
        _;
      } ->
      let parent_harvest =
        make_harvest ~packed:true
          (make_fetch ~packed:true parent_access ~cls:parent_cls
             ~var:parent_var)
          ~key:Op.K_self ~cls:parent_cls ~var:parent_var select
      in
      let child_harvest =
        make_harvest ~packed:true
          (make_fetch ~packed:true child_access ~cls:child_cls ~var:child_var)
          ~key:(Op.K_inverse (require_inv inv_attr))
          ~cls:child_cls ~var:child_var select
      in
      let build, probe, probe_key, probe_cls, build_var, probe_var =
        match algo with
        | Plan.PHJ | Plan.PHHJ ->
            ( parent_harvest,
              child_harvest,
              Op.K_inverse (require_inv inv_attr),
              child_cls,
              parent_var,
              child_var )
        | Plan.CHJ | Plan.CHHJ ->
            (child_harvest, parent_harvest, Op.K_self, parent_cls, child_var, parent_var)
        | Plan.NL | Plan.NOJOIN | Plan.SMJ -> assert false
      in
      let exchange harv =
        let part_key =
          key_name
            (match harv.Op.kind with
            | Op.Harvest { key; _ } -> key
            | _ -> assert false)
        in
        Op.make (Op.Exchange { child = harv; shards; part_key })
      in
      Op.make
        (Op.Shard_lane
           {
             child =
               make_finish ~select ~aggregate
                 (Op.make
                    (Op.Hash_probe
                       {
                         build =
                           Op.make (Op.Hash_build { child = exchange build });
                         probe = exchange probe;
                         probe_key;
                         probe_cls;
                         build_var;
                         probe_var;
                       }));
             shard;
             shards;
           })
  | Plan.Selection _ -> assert false

(* [lower_sharded smap plan] rewrites the plan into per-shard subtrees
   under a Gather root.  With a single shard this is exactly [lower]: no
   Gather, no Shard_lane — the one-shard engine is the unsharded engine by
   construction, which is what keeps the golden fingerprint byte-identical
   at S=1.  Every lane shapes the same plan: its index scans find their
   B-trees on the shard the lane runs on. *)
let shape_sharded smap plan =
  let shards = Shard_map.count smap in
  if shards = 1 then shape plan
  else
    let ordered =
      match plan with
      | Plan.Selection { access = Plan.Index_scan { sorted = true; _ }; _ } ->
          true
      | _ -> false
    in
    let lanes =
      Array.init shards (fun s ->
          match plan with
          | Plan.Hier_join
              { algo = Plan.PHJ | Plan.CHJ | Plan.PHHJ | Plan.CHHJ; _ } ->
              hash_lane ~shards ~shard:s plan
          | _ ->
              Op.make
                (Op.Shard_lane { child = shape plan; shard = s; shards }))
    in
    Op.make
      (Op.Gather { lanes; shards; part_key = Shard_map.key_attr smap; ordered })

let lower_sharded smap plan = Op.attach_frames (shape_sharded smap plan)

let run ?organization ?force_algo ?force_sorted ?force_seq ?(keep = false) db
    text =
  let q = Oql_parser.parse text in
  let p = plan ?organization ?force_algo ?force_sorted ?force_seq db q in
  Exec.run db (lower p) ~keep

let run_explained ?organization ?force_algo ?force_sorted ?force_seq
    ?(keep = false) db text =
  let q = Oql_parser.parse text in
  let p = plan ?organization ?force_algo ?force_sorted ?force_seq db q in
  let root = lower p in
  let result, global = Exec.run_explained db root ~keep in
  (result, root, global)

(* Planning happens against shard 0: every shard replicates the schema and
   index set, and shard-0 statistics (1/S of the data) rank algorithms the
   same way the global statistics do for our uniform generators. *)
let run_sharded_explained ?organization ?force_algo ?force_sorted ?force_seq
    ?(keep = false) smap text =
  let q = Oql_parser.parse text in
  let p =
    plan ?organization ?force_algo ?force_sorted ?force_seq
      (Shard_map.shard smap 0) q
  in
  let root = lower_sharded smap p in
  let result, global, lanes = Exec.run_sharded_explained smap root ~keep in
  (result, root, global, lanes)

(* --- the optimizer pipeline: enumerate -> cost -> pick -> validate --- *)

type choice = { ch_plan : Plan.t; ch_cost_ms : float }

type decision = {
  d_plan : Plan.t;
  d_root : Op.t;  (* lowered + annotated chosen tree *)
  d_cost_ms : float;
  d_candidates : choice list;  (* every candidate, ranked best-first *)
  d_stats : Sc.t;
  d_organization : Estimate.organization;
}

(* Descriptions are formatted only when something prints them. *)
let ch_desc ch = Enumerate.describe ch.ch_plan
let d_desc d = Enumerate.describe d.d_plan

(* --- prepared entries ---

   What [optimize] derives from a text alone, kept in the retained catalog
   it was derived from: the bound query's candidate plans in enumeration
   order and each plan's cost program.  The catalog is a snapshot, so the
   raw ms in a program never go stale; only the corrections move, and
   every call folds them in afresh.  The key is the text and the
   organization argument as given (the default is itself a function of
   the text and the catalog). *)

type entry = {
  e_organization : Estimate.organization;
  e_plans : Plan.t array;
  e_programs : Estimate.program array;
}

type Sc.prepared += Prepared of entry

let variant = function
  | None -> 0
  | Some Estimate.Separate_files -> 1
  | Some Estimate.Shared_random -> 2
  | Some Estimate.Shared_composition -> 3
  | Some Estimate.Assoc_clustered -> 4

let prepare stats ?organization db text =
  let bound = Plan.bind db (Oql_parser.parse text) in
  let organization =
    match organization with
    | Some o -> o
    | None -> (
        match bound with
        | Plan.B_hier { parent_cls; child_cls; _ } ->
            default_organization stats ~parent_cls ~child_cls
        | Plan.B_selection _ -> Estimate.Separate_files)
  in
  let plans = Array.of_list (Enumerate.candidates stats bound) in
  if Array.length plans = 0 then
    raise (Plan.Unsupported "optimizer: empty candidate space");
  {
    e_organization = organization;
    e_plans = plans;
    e_programs = Array.map (fun p -> Estimate.program ~stats ~organization (shape p)) plans;
  }

(* An entry applies only to a database whose schema the catalog was taken
   from; any other is prepared for this call alone. *)
let entry stats ?organization db text =
  if not (Sc.analyzed_from stats (Tb_store.Database.schema db)) then
    prepare stats ?organization db text
  else
    let variant = variant organization in
    match Sc.find_prepared stats ~text ~variant with
    | Prepared e -> e
    | _ -> invalid_arg "Planner.optimize: a foreign prepared entry"
    | exception Not_found ->
        let e = prepare stats ?organization db text in
        Sc.add_prepared stats ~text ~variant (Prepared e);
        e

(* [optimize db text] runs the first three stages: enumerate the candidate
   plans, cost each against catalog statistics, and pick the argmin.  The
   argmin is strict-<, so on equal cost the FIRST enumerated plan wins —
   which is how the tie policy (originals over extensions, index over
   scan) is enforced.

   Every call costs every candidate by folding its cost program against
   the catalog's current corrections; a text seen for the first time is
   parsed, bound, enumerated and shaped into its entry first.  Only the
   winner is shaped again, annotated and given run frames, so no tree is
   shared between two decisions.

   Statistics default to a fresh [Stat_catalog.analyze]; pass a retained
   catalog to let validate-stage feedback from earlier runs reach this
   optimization, and to keep the text's entry for the next call. *)
let optimize ?stats ?organization db text =
  let stats = match stats with Some s -> s | None -> Sc.analyze db in
  let e = entry stats ?organization db text in
  let scored =
    List.init (Array.length e.e_plans) (fun i ->
        {
          ch_plan = e.e_plans.(i);
          ch_cost_ms = Estimate.program_cost stats e.e_programs.(i);
        })
  in
  let best =
    List.fold_left
      (fun b ch -> if ch.ch_cost_ms < b.ch_cost_ms then ch else b)
      (List.hd scored) scored
  in
  let organization = e.e_organization in
  let root = shape best.ch_plan in
  Estimate.annotate ~stats ~organization root;
  {
    d_plan = best.ch_plan;
    d_root = Op.attach_frames root;
    d_cost_ms = best.ch_cost_ms;
    d_candidates =
      List.stable_sort (fun a b -> Float.compare a.ch_cost_ms b.ch_cost_ms) scored;
    d_stats = stats;
    d_organization = organization;
  }

(* Optimize, execute, validate: the full four-stage pipeline.  The
   returned checks carry per-operator q-errors; mis-estimates have already
   fed corrections back into the decision's catalog. *)
let run_optimized_explained ?stats ?organization ?(keep = false) db text =
  let d = optimize ?stats ?organization db text in
  let result, global = Exec.run_explained db d.d_root ~keep in
  let checks = Exec.validate ~stats:d.d_stats d.d_root in
  (result, d, global, checks)

(* --- sharded break-even from statistics alone --- *)

type shard_decision = {
  sd_shards : int;
  sd_unsharded_ms : float;  (* best single-node candidate *)
  sd_sharded_ms : float;  (* the same plan sharded, fork/join elapsed *)
  sd_use_sharded : bool;
  sd_decision : decision;  (* the underlying single-node optimization *)
}

(* Compare the best single-node plan against its sharded rewrite, both
   costed from the merged global catalog (each Shard_lane estimates
   against a 1/S-scaled view).  Nothing executes: the break-even comes
   from statistics alone. *)
let optimize_sharded ?organization smap text =
  let shards = Shard_map.count smap in
  let stats =
    Sc.merge
      (List.init shards (fun s -> Sc.analyze (Shard_map.shard smap s)))
  in
  let d = optimize ~stats ?organization (Shard_map.shard smap 0) text in
  let sharded_ms =
    if shards = 1 then d.d_cost_ms
    else begin
      let root = shape_sharded smap d.d_plan in
      Estimate.annotate ~stats ~organization:d.d_organization root;
      Estimate.plan_cost_ms root
    end
  in
  {
    sd_shards = shards;
    sd_unsharded_ms = d.d_cost_ms;
    sd_sharded_ms = sharded_ms;
    sd_use_sharded = sharded_ms < d.d_cost_ms;
    sd_decision = d;
  }
