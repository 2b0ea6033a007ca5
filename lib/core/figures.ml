module Generator = Tb_derby.Generator
module Database = Tb_store.Database
module Plan = Tb_query.Plan

type shape = [ `Wide | `Deep ]

type ctx = {
  scale : int;
  stats : Tb_statdb.Stat_store.t;
  mutable builts : ((shape * Generator.organization) * Generator.built) list;
  mutable numtest : int;
}

let create ~scale =
  if scale <= 0 then invalid_arg "Figures.create: scale";
  { scale; stats = Tb_statdb.Stat_store.create (); builts = []; numtest = 0 }

let stats ctx = ctx.stats

let shape_name = function `Wide -> "2000x1000" | `Deep -> "1000000x3"

let org_name = function
  | Generator.Class_clustered -> "class"
  | Generator.Randomized -> "random"
  | Generator.Composition -> "composition"
  | Generator.Assoc_ordered -> "assoc"

let built ctx shape org =
  match List.assoc_opt (shape, org) ctx.builts with
  | Some b -> b
  | None ->
      Printf.eprintf "[treebench] building %s / %s at 1/%d scale...\n%!"
        (shape_name shape) (org_name org) ctx.scale;
      let cfg = Generator.config ~scale:ctx.scale shape org in
      let b = Generator.build ~cost:(Tb_sim.Cost_model.scaled ctx.scale) cfg in
      ctx.builts <- ((shape, org), b) :: ctx.builts;
      b

(* Drop cached databases the remaining figures do not need (they hold the
   whole simulated disk in memory). *)
let release ctx shape org =
  ctx.builts <- List.remove_assoc (shape, org) ctx.builts

let record ctx (b : Generator.built) ~algo ~selectivity ~query_text m =
  ctx.numtest <- ctx.numtest + 1;
  ignore
    (Tb_statdb.Stat_store.record ctx.stats
       (Measurement.to_observation m ~numtest:ctx.numtest ~query_text
          ~selectivity
          ~database:(Printf.sprintf "%dx%d" b.Generator.cfg.Generator.n_providers b.Generator.cfg.Generator.fanout)
          ~cluster:(org_name b.Generator.cfg.Generator.organization)
          ~algo
          ~server_cache_pages:b.Generator.cfg.Generator.server_pages
          ~client_cache_pages:b.Generator.cfg.Generator.client_pages))

(* --- join machinery --- *)

let n_patients (b : Generator.built) = Array.length b.Generator.patients
let n_providers (b : Generator.built) = Array.length b.Generator.providers

let join_query b ~sel_pat ~sel_prov =
  let k1 = sel_pat * n_patients b / 100 in
  let k2 = sel_prov * n_providers b / 100 in
  Printf.sprintf
    "select [p.name, pa.age] from p in Providers, pa in p.clients where \
     pa.mrn < %d and p.upin < %d"
    k1 k2

let join_measure ctx shape org algo (sel_pat, sel_prov) =
  let b = built ctx shape org in
  let q = join_query b ~sel_pat ~sel_prov in
  let m =
    Measurement.run_cold b.Generator.db q
      ~organization:(Generator.estimate_organization b.Generator.cfg)
      ~force_algo:algo ~force_sorted:true
      ~label:(Plan.algo_name algo)
  in
  record ctx b ~algo:(Plan.algo_name algo) ~selectivity:sel_pat ~query_text:q m;
  m

let algos = [ Plan.PHJ; Plan.CHJ; Plan.NOJOIN; Plan.NL ]
let cells = [ (10, 10); (10, 90); (90, 10); (90, 90) ]

let join_figure ctx ppf ~title ~shape ~org ~paper =
  Format.fprintf ppf "@.=== %s (measured at 1/%d scale) ===@.@." title ctx.scale;
  List.iter
    (fun cell ->
      let measured =
        List.map
          (fun algo ->
            let m = join_measure ctx shape org algo cell in
            (Plan.algo_name algo, m.Measurement.elapsed_s))
          algos
      in
      let paper_cell =
        Option.map (fun rows -> (cell, List.assoc cell rows)) paper
      in
      Format.fprintf ppf "%s@."
        (Table_fmt.ranked ~title ?paper:paper_cell (cell, measured) ()))
    cells

let fig11 ctx ppf =
  join_figure ctx ppf
    ~title:"Figure 11: One file per Class, 2x10^3 Providers, 2x10^6 Patients"
    ~shape:`Wide ~org:Generator.Class_clustered
    ~paper:(Some (Paper_ref.join_cells `Wide `Class))

let fig12 ctx ppf =
  join_figure ctx ppf
    ~title:"Figure 12: One file per Class, 10^6 Providers, 3x10^6 Patients"
    ~shape:`Deep ~org:Generator.Class_clustered
    ~paper:(Some (Paper_ref.join_cells `Deep `Class))

let fig13 ctx ppf =
  join_figure ctx ppf
    ~title:"Figure 13: Composition Cluster, 2x10^3 Providers, 2x10^6 Patients"
    ~shape:`Wide ~org:Generator.Composition
    ~paper:(Some (Paper_ref.join_cells `Wide `Composition))

let fig14 ctx ppf =
  join_figure ctx ppf
    ~title:"Figure 14: Composition Cluster, 10^6 Providers, 3x10^6 Patients"
    ~shape:`Deep ~org:Generator.Composition
    ~paper:(Some (Paper_ref.join_cells `Deep `Composition))

let fig15 ctx ppf =
  Format.fprintf ppf
    "@.=== Figure 15: Summarizing Results: Winning Algorithms (1/%d scale) \
     ===@.@."
    ctx.scale;
  let orgs =
    [
      (Generator.Randomized, `Random, "Rand. Org.");
      (Generator.Class_clustered, `Class, "Class Cluster");
      (Generator.Composition, `Composition, "Comp. Cluster");
    ]
  in
  let rows = ref [] in
  List.iter
    (fun shape ->
      List.iter
        (fun cell ->
          let sel_pat, sel_prov = cell in
          let row =
            List.concat_map
              (fun (org, porg, _) ->
                let best_name, best_time =
                  List.fold_left
                    (fun (bn, bt) algo ->
                      let m = join_measure ctx shape org algo cell in
                      if m.Measurement.elapsed_s < bt then
                        (Plan.algo_name algo, m.Measurement.elapsed_s)
                      else (bn, bt))
                    ("-", infinity) algos
                in
                let paper_best, paper_time =
                  match
                    List.find_opt
                      (fun (s, o, sp, sq, _, _) ->
                        s = shape && o = porg && sp = sel_pat && sq = sel_prov)
                      Paper_ref.fig15
                  with
                  | Some (_, _, _, _, name, t) -> (name, t)
                  | None -> ("?", 0.0)
                in
                [
                  Printf.sprintf "%s %s" best_name (Table_fmt.secs best_time);
                  Printf.sprintf "%s %s" paper_best (Table_fmt.secs paper_time);
                ])
              orgs
          in
          rows :=
            ([
               (match shape with `Wide -> "1:1000" | `Deep -> "1:3");
               string_of_int sel_pat;
               string_of_int sel_prov;
             ]
            @ row)
            :: !rows)
        cells;
      (* The randomized databases are only needed for this figure. *)
      release ctx shape Generator.Randomized)
    [ `Wide; `Deep ];
  Format.fprintf ppf "%s@."
    (Table_fmt.render ~title:"Best algorithm and time per organization"
       ~header:
         [
           "Rel";
           "Sel.pat";
           "Sel.prov";
           "Rand (ours)";
           "Rand (paper)";
           "Class (ours)";
           "Class (paper)";
           "Comp (ours)";
           "Comp (paper)";
         ]
       (List.rev !rows))

(* --- selections (Figures 6, 7, 9) --- *)

let selection_query b ~sel_permille =
  let k = sel_permille * n_patients b / 1000 in
  Printf.sprintf "select pa.age from pa in Patients where pa.num < %d" k

let selection_measure ctx ~access ~sel_permille =
  let b = built ctx `Wide Generator.Class_clustered in
  let q = selection_query b ~sel_permille in
  let label, force_seq, force_sorted =
    match access with
    | `Scan -> ("no index", true, None)
    | `Index -> ("unclustered index", false, Some false)
    | `Sorted_index -> ("sorted unclustered index", false, Some true)
  in
  let m =
    Measurement.run_cold b.Generator.db q ~force_seq ?force_sorted ~label
  in
  record ctx b ~algo:label ~selectivity:(sel_permille / 10) ~query_text:q m;
  m

let fig6 ctx ppf =
  Format.fprintf ppf
    "@.=== Figure 6 (reconstructed): selection via unclustered index vs no \
     index (1/%d scale) ===@." ctx.scale;
  Format.fprintf ppf
    "(The published table is corrupted in the available copy; structure \
     reconstructed from Section 4.2.@.Anchors: no-index 0.1%% = %.2fs, \
     no-index 90%% = %.2fs on the Sparc 20.)@.@."
    Paper_ref.fig6_scan_lo Paper_ref.fig6_scan_hi;
  let rows =
    List.map
      (fun sel_permille ->
        let idx = selection_measure ctx ~access:`Index ~sel_permille in
        let scan = selection_measure ctx ~access:`Scan ~sel_permille in
        [
          Printf.sprintf "%.1f" (float_of_int sel_permille /. 10.0);
          Table_fmt.secs idx.Measurement.elapsed_s;
          string_of_int idx.Measurement.disk_reads;
          Table_fmt.secs scan.Measurement.elapsed_s;
          string_of_int scan.Measurement.disk_reads;
          (if idx.Measurement.elapsed_s > scan.Measurement.elapsed_s then
             "index loses"
           else "index wins");
        ])
      [ 1; 10; 50; 100; 300; 600; 900 ]
  in
  Format.fprintf ppf "%s@."
    (Table_fmt.render ~title:"Selection on Patients.num (random key)"
       ~header:
         [
           "Sel. %";
           "Index (s)";
           "Index reads";
           "No index (s)";
           "No index reads";
           "Verdict";
         ]
       rows)

let fig7 ctx ppf =
  Format.fprintf ppf
    "@.=== Figure 7: Sorted Unclustered Index vs No Index (1/%d scale) ===@.@."
    ctx.scale;
  let rows =
    List.map
      (fun sel ->
        let sorted = selection_measure ctx ~access:`Sorted_index ~sel_permille:(sel * 10) in
        let scan = selection_measure ctx ~access:`Scan ~sel_permille:(sel * 10) in
        let _, paper_sorted, paper_scan =
          List.find (fun (s, _, _) -> s = sel) Paper_ref.fig7
        in
        [
          string_of_int sel;
          Table_fmt.secs sorted.Measurement.elapsed_s;
          Table_fmt.secs scan.Measurement.elapsed_s;
          Printf.sprintf "%.2f"
            (scan.Measurement.elapsed_s /. sorted.Measurement.elapsed_s);
          Table_fmt.secs paper_sorted;
          Table_fmt.secs paper_scan;
          Printf.sprintf "%.2f" (paper_scan /. paper_sorted);
        ])
      [ 10; 30; 60; 90 ]
  in
  Format.fprintf ppf "%s@."
    (Table_fmt.render ~title:"Sorted unclustered index scan vs full scan"
       ~header:
         [
           "Sel. %";
           "Sorted idx (s)";
           "No index (s)";
           "Speedup";
           "Paper idx";
           "Paper scan";
           "Paper speedup";
         ]
       rows)

let fig9 ctx ppf =
  Format.fprintf ppf
    "@.=== Figure 9: Standard Scan vs Sorted Index Scan, cost decomposition \
     (90%% selectivity, 1/%d scale) ===@.@."
    ctx.scale;
  let scan = selection_measure ctx ~access:`Scan ~sel_permille:900 in
  let sorted = selection_measure ctx ~access:`Sorted_index ~sel_permille:900 in
  let row name f = [ name; string_of_int (f scan); string_of_int (f sorted) ] in
  Format.fprintf ppf "%s@."
    (Table_fmt.render ~title:"Event counts"
       ~header:[ "Event"; "Standard scan"; "Sorted index scan" ]
       [
         row "Page reads (data + index)" (fun m -> m.Measurement.disk_reads);
         row "Handle allocations" (fun m -> m.Measurement.handle_allocs);
         row "Handle frees" (fun m -> m.Measurement.handle_frees);
         row "Predicate comparisons" (fun m -> m.Measurement.comparisons);
         row "Sort comparisons" (fun m -> m.Measurement.sort_comparisons);
         row "Result appends" (fun m -> m.Measurement.result_appends);
       ]);
  Format.fprintf ppf
    "The index scan avoids one Handle get/unreference pair per rejected \
     object@.and pays a Rid sort instead — the Figure 9 trade-off.@."

let fig10 ctx ppf =
  Format.fprintf ppf
    "@.=== Figure 10: Approximation of the hash table sizes ===@.@.";
  (* Model at paper scale, using our hash-table cost structure. *)
  let name_bytes = 19 and age_bytes = 5 and rid_bytes = 8 in
  let model algo providers fanout sel_pat sel_prov =
    let patients = providers * fanout in
    match algo with
    | "PHJ" ->
        let entries = sel_prov * providers / 100 in
        float_of_int
          (entries
          * (name_bytes + rid_bytes + Tb_query.Mem_hash.entry_overhead
           + Tb_query.Mem_hash.group_overhead))
        /. 1048576.0
    | _ ->
        let entries = sel_pat * patients / 100 in
        let groups = min (sel_prov * providers / 100) entries in
        float_of_int
          ((entries * (age_bytes + rid_bytes + Tb_query.Mem_hash.entry_overhead))
          + (groups * Tb_query.Mem_hash.group_overhead))
        /. 1048576.0
  in
  let rows =
    List.map
      (fun (algo, providers, fanout, sel_pat, sel_prov, paper_mb) ->
        let ours = model algo providers fanout sel_pat sel_prov in
        [
          algo;
          string_of_int providers;
          Printf.sprintf "1:%d" fanout;
          string_of_int sel_pat;
          string_of_int sel_prov;
          Printf.sprintf "%.4f" ours;
          Printf.sprintf "%.4f" paper_mb;
        ])
      Paper_ref.fig10
  in
  Format.fprintf ppf "%s@."
    (Table_fmt.render ~title:"Hash table sizes at paper scale (MB)"
       ~header:
         [
           "Algorithm";
           "Providers";
           "Children";
           "Sel.pat %";
           "Sel.prov %";
           "Ours (MB)";
           "Paper (MB)";
         ]
       rows);
  (* Measured peaks at bench scale for the two extreme cells. *)
  let peak shape algo cell =
    let m = join_measure ctx shape Generator.Class_clustered algo cell in
    float_of_int m.Measurement.peak_working_bytes /. 1048576.0
  in
  let measured =
    [
      [ "PHJ"; "1:1000"; "90/90"; Printf.sprintf "%.4f" (peak `Wide Plan.PHJ (90, 90)) ];
      [ "CHJ"; "1:1000"; "90/90"; Printf.sprintf "%.4f" (peak `Wide Plan.CHJ (90, 90)) ];
      [ "PHJ"; "1:3"; "90/90"; Printf.sprintf "%.4f" (peak `Deep Plan.PHJ (90, 90)) ];
      [ "CHJ"; "1:3"; "90/90"; Printf.sprintf "%.4f" (peak `Deep Plan.CHJ (90, 90)) ];
    ]
  in
  Format.fprintf ppf "%s@."
    (Table_fmt.render
       ~title:
         (Printf.sprintf
            "Measured peak working memory at 1/%d scale (hash table + \
             result, MB)"
            ctx.scale)
       ~header:[ "Algorithm"; "Shape"; "Cell"; "Peak (MB)" ]
       measured)

(* --- Section 3.2: loading --- *)

let loading ctx ppf =
  Format.fprintf ppf
    "@.=== Loading the hard way (Section 3.2 ablations, 1/%d scale, 1:3 \
     shape) ===@.@."
    ctx.scale;
  let base = Generator.config ~scale:ctx.scale `Deep Generator.Class_clustered in
  let variants =
    [
      ("tuned: txn off, slotted headers, 32MB client", base);
      ( "standard transactions (log + commits)",
        { base with Generator.txn_mode = Tb_store.Transaction.Standard } );
      ( "unindexed creation (first index reallocates)",
        { base with Generator.indexed_creation = false } );
      ( "default caches (4MB server / 4MB client)",
        { base with Generator.client_pages = base.Generator.server_pages } );
    ]
  in
  let rows =
    List.map
      (fun (name, cfg) ->
        let b = Generator.build ~cost:(Tb_sim.Cost_model.scaled ctx.scale) cfg in
        [ name; Table_fmt.secs b.Generator.load_seconds ])
      variants
  in
  Format.fprintf ppf "%s@."
    (Table_fmt.render ~title:"Load time by configuration"
       ~header:[ "Configuration"; "Load time (sim s)" ]
       rows);
  Format.fprintf ppf
    "The paper's trajectory: 12 hours naive, 5 hours after tuning, 1 hour \
     claimed possible.@.The orderings above reproduce each lesson: \
     transaction-off loading, pre-slotted@.headers, and a large client cache \
     each cut the load time.@."

(* --- Section 4.4: handle ablation --- *)

let handles ctx ppf =
  Format.fprintf ppf
    "@.=== Handles: fat (60-byte, measured) vs compact (proposed), 1/%d \
     scale ===@.@."
    ctx.scale;
  let run kind =
    let cfg =
      {
        (Generator.config ~scale:ctx.scale `Wide Generator.Class_clustered) with
        Generator.handle_kind = kind;
      }
    in
    let b = Generator.build ~cost:(Tb_sim.Cost_model.scaled ctx.scale) cfg in
    let scan =
      Measurement.run_cold b.Generator.db
        (selection_query b ~sel_permille:900)
        ~force_seq:true ~label:"scan"
    in
    let join =
      Measurement.run_cold b.Generator.db
        (join_query b ~sel_pat:90 ~sel_prov:90)
        ~force_algo:Plan.PHJ ~force_sorted:true ~label:"phj"
    in
    (scan.Measurement.elapsed_s, join.Measurement.elapsed_s)
  in
  let fat_scan, fat_join = run Tb_sim.Cost_model.Fat in
  let compact_scan, compact_join = run Tb_sim.Cost_model.Compact in
  Format.fprintf ppf "%s@."
    (Table_fmt.render
       ~title:"Cold associative accesses under each Handle design"
       ~header:[ "Workload"; "Fat (s)"; "Compact (s)"; "Speedup" ]
       [
         [
           "90% selection, no index";
           Table_fmt.secs fat_scan;
           Table_fmt.secs compact_scan;
           Printf.sprintf "%.2fx" (fat_scan /. compact_scan);
         ];
         [
           "PHJ join 90/90";
           Table_fmt.secs fat_join;
           Table_fmt.secs compact_join;
           Printf.sprintf "%.2fx" (fat_join /. compact_join);
         ];
       ]);
  Format.fprintf ppf
    "Section 4.4's conclusion quantified: compacting Handles and \
     bulk-allocating them@.speeds up cold associative accesses without \
     touching warm navigation.@."

(* --- Section 5.3: association-ordered layout --- *)

let assoc ctx ppf =
  Format.fprintf ppf
    "@.=== Association-ordered files (the Section 5.3 alternative), 1/%d \
     scale, 1:3 shape ===@.@."
    ctx.scale;
  List.iter
    (fun cell ->
      let measured org =
        List.map
          (fun algo ->
            let m = join_measure ctx `Deep org algo cell in
            (Plan.algo_name algo, m.Measurement.elapsed_s))
          algos
      in
      let row name t = Printf.sprintf "%s %.2f" name t in
      let best ms =
        match List.sort (fun (_, a) (_, b) -> Float.compare a b) ms with
        | (n, t) :: _ -> row n t
        | [] -> "-"
      in
      let class_ms = measured Generator.Class_clustered in
      let comp_ms = measured Generator.Composition in
      let assoc_ms = measured Generator.Assoc_ordered in
      let sel_pat, sel_prov = cell in
      Format.fprintf ppf "%s@."
        (Table_fmt.render
           ~title:
             (Printf.sprintf "Cell sel.pat %d%% / sel.prov %d%%" sel_pat
                sel_prov)
           ~header:[ "Organization"; "Best"; "NL"; "NOJOIN"; "PHJ"; "CHJ" ]
           (List.map
              (fun (name, ms) ->
                name :: best ms
                :: List.map
                     (fun a -> Table_fmt.secs (List.assoc a ms))
                     [ "NL"; "NOJOIN"; "PHJ"; "CHJ" ])
              [
                ("class", class_ms);
                ("composition", comp_ms);
                ("assoc-ordered", assoc_ms);
              ])))
    cells;
  Format.fprintf ppf
    "Claim check (Section 5.3): assoc-ordered keeps navigation close to \
     composition@.clustering while hash joins and selections stay close to \
     class clustering.@."

(* --- extensions the paper names but never ran --- *)

let hybrid ctx ppf =
  Format.fprintf ppf
    "@.=== Hybrid hashing (the fix Section 5.1 points at but never tested), \
     1/%d scale, 1:3 class clustering ===@.@."
    ctx.scale;
  let extended = algos @ [ Plan.PHHJ; Plan.CHHJ ] in
  List.iter
    (fun cell ->
      let measured =
        List.map
          (fun algo ->
            let m = join_measure ctx `Deep Generator.Class_clustered algo cell in
            (Plan.algo_name algo, m.Measurement.elapsed_s))
          extended
      in
      Format.fprintf ppf "%s@."
        (Table_fmt.ranked
           ~title:"Figure 12 cells with hybrid hash joins added"
           (cell, measured) ()))
    [ (90, 10); (90, 90) ];
  Format.fprintf ppf
    "At 90/90 the in-memory tables outgrow RAM and thrash; the hybrid \
     variants spill whole@.partitions sequentially instead and keep the \
     hash joins competitive with navigation —@.confirming the authors' \
     conjecture that \"the need for hybrid hashing\" was the missing \
     piece.@."

let sortjoin ctx ppf =
  Format.fprintf ppf
    "@.=== Sort-merge joins (\"they proved to be worse [...] and we dropped \
     them\"), 1/%d scale ===@.@."
    ctx.scale;
  let extended = [ Plan.PHJ; Plan.CHJ; Plan.SMJ ] in
  List.iter
    (fun (shape, cell, title) ->
      let measured =
        List.map
          (fun algo ->
            let m = join_measure ctx shape Generator.Class_clustered algo cell in
            (Plan.algo_name algo, m.Measurement.elapsed_s))
          extended
      in
      Format.fprintf ppf "%s@." (Table_fmt.ranked ~title (cell, measured) ()))
    [
      (`Wide, (10, 10), "2x10^3 providers, class clustering");
      (`Deep, (10, 10), "10^6 providers, class clustering");
      (`Deep, (90, 90), "10^6 providers, class clustering, memory-bound");
    ];
  Format.fprintf ppf
    "In the in-memory regime the sort-merge join pays two sorts the hash \
     joins avoid and@.loses, as the authors found before dropping it.  \
     Reproduction bonus the paper missed:@.at 90/90, where the in-memory \
     hash tables thrash, sort-merge's sequential spills make it@.robust — \
     the same property hybrid hashing buys.@."

let costmodel ctx ppf =
  Format.fprintf ppf
    "@.=== Cost-model validation (the paper's original, abandoned goal), \
     1/%d scale ===@.@."
    ctx.scale;
  (* The authors set out to elicit a cost model from benchmark data and
     "failed on both points".  Here the model of lib/query/estimate.ml is
     checked against the simulator: predicted vs measured time per
     algorithm per cell, plus whether the predicted winner is the real
     one. *)
  let shapes = [ (`Wide, "1:1000"); (`Deep, "1:3") ] in
  let hits = ref 0 and total = ref 0 in
  List.iter
    (fun (shape, shape_label) ->
      List.iter
        (fun cell ->
          let sel_pat, sel_prov = cell in
          let b = built ctx shape Generator.Class_clustered in
          let bound =
            Tb_query.Plan.bind b.Generator.db
              (Tb_query.Oql_parser.parse (join_query b ~sel_pat ~sel_prov))
          in
          let env =
            Tb_query.Planner.join_env
              (Tb_statcore.Stat_catalog.analyze b.Generator.db)
              bound ~organization:(Generator.estimate_organization b.Generator.cfg)
          in
          let rows =
            List.map
              (fun algo ->
                let predicted = Tb_query.Estimate.join_ms env algo /. 1000.0 in
                let measured =
                  (join_measure ctx shape Generator.Class_clustered algo cell)
                    .Measurement.elapsed_s
                in
                (algo, predicted, measured))
              algos
          in
          let best_by f =
            fst
              (List.fold_left
                 (fun (ba, bv) (a, p, m) ->
                   let v = f p m in
                   if v < bv then (a, v) else (ba, bv))
                 (Plan.NL, infinity) rows)
          in
          let predicted_winner = best_by (fun p _ -> p) in
          let measured_winner = best_by (fun _ m -> m) in
          incr total;
          if predicted_winner = measured_winner then incr hits;
          Format.fprintf ppf "%s@."
            (Table_fmt.render
               ~title:
                 (Printf.sprintf
                    "%s class clustering, sel.pat %d%% / sel.prov %d%% — \
                     predicted winner %s, measured winner %s"
                    shape_label sel_pat sel_prov
                    (Plan.algo_name predicted_winner)
                    (Plan.algo_name measured_winner))
               ~header:[ "Algorithm"; "Predicted (s)"; "Measured (s)"; "Pred/Meas" ]
               (List.map
                  (fun (a, p, m) ->
                    [
                      Plan.algo_name a;
                      Table_fmt.secs p;
                      Table_fmt.secs m;
                      Printf.sprintf "%.2f" (p /. m);
                    ])
                  rows)))
        cells)
    shapes;
  Format.fprintf ppf
    "Predicted winner matches the measured winner in %d of %d cells.  The \
     statistics this needs@.(cardinalities, pages, index clustering factors, \
     key histograms, link ratios, memory) are@.exactly the catalog Section 2 \
     says the system should maintain.@."
    !hits !total

let oo7 ctx ppf =
  ignore ctx;
  Format.fprintf ppf
    "@.=== A miniature 007: why the Handle problem went undetected ===@.@.";
  let cost = Tb_sim.Cost_model.scaled 100 in
  let b = Tb_oo7.Oo7.build ~cost Tb_oo7.Oo7.tiny in
  let db = b.Tb_oo7.Oo7.db in
  let sim = Tb_store.Database.sim db in
  Tb_store.Database.cold_restart db;
  Tb_sim.Sim.reset sim;
  let visits = Tb_oo7.Oo7.traversal_t1 b in
  let t1_cold = Tb_sim.Sim.elapsed_s sim in
  Tb_sim.Sim.reset sim;
  ignore (Tb_oo7.Oo7.traversal_t1 b);
  let t1_warm = Tb_sim.Sim.elapsed_s sim in
  Tb_store.Database.cold_restart db;
  Tb_sim.Sim.reset sim;
  let matched = Tb_oo7.Oo7.query_q ~frac:0.9 b in
  let q_cold = Tb_sim.Sim.elapsed_s sim in
  Format.fprintf ppf "%s@."
    (Table_fmt.render
       ~title:
         (Printf.sprintf
            "007 tiny module (%d atomic-part visits; associative query \
             matches %d parts)"
            visits matched)
       ~header:[ "Workload"; "Time (s)" ]
       [
         [ "T1 traversal, cold"; Table_fmt.secs t1_cold ];
         [ "T1 traversal, warm"; Table_fmt.secs t1_warm ];
         [ "associative count over 90% of parts, cold"; Table_fmt.secs q_cold ];
       ]);
  Format.fprintf ppf
    "The warm traversal — the number 007 leaderboards ranked systems by — \
     runs an order of@.magnitude faster than any cold access and performs \
     no I/O and no Handle allocation.@.A system tuned on T1-style warm \
     numbers never sees the costs Sections 4-5 dissect.@."

let aggregates ctx ppf =
  Format.fprintf ppf
    "@.=== Result construction vs aggregation (the 18-minute collection of \
     Section 4.2), 1/%d scale ===@.@."
    ctx.scale;
  let b = built ctx `Wide Generator.Class_clustered in
  let nc = n_patients b in
  let rows =
    List.map
      (fun sel ->
        let k = sel * nc / 100 in
        let materialize =
          Measurement.run_cold b.Generator.db
            (Printf.sprintf "select pa.age from pa in Patients where pa.num < %d" k)
            ~force_seq:true ~label:"materialize"
        in
        let fold =
          Measurement.run_cold b.Generator.db
            (Printf.sprintf
               "select count(pa.age) from pa in Patients where pa.num < %d" k)
            ~force_seq:true ~label:"count"
        in
        [
          string_of_int sel;
          Table_fmt.secs materialize.Measurement.elapsed_s;
          Table_fmt.secs fold.Measurement.elapsed_s;
          Printf.sprintf "%.2fx"
            (materialize.Measurement.elapsed_s /. fold.Measurement.elapsed_s);
        ])
      [ 10; 50; 90 ]
  in
  Format.fprintf ppf "%s@."
    (Table_fmt.render
       ~title:"Full scan of Patients: materialize ages vs count them"
       ~header:[ "Sel. %"; "Materialize (s)"; "count() (s)"; "Ratio" ]
       rows);
  Format.fprintf ppf
    "Section 4.2 derives ~18 minutes just to construct a collection of 1.8M \
     integers under a@.standard transaction.  Folding the same rows into an \
     aggregate skips that entire cost —@.the single cheapest optimization \
     for analytic queries over O2-style engines.@."

let warm ctx ppf =
  Format.fprintf ppf
    "@.=== Warm navigation vs cold first touch (the object-benchmark bias \
     of Section 4.4), 1/%d scale ===@.@."
    ctx.scale;
  (* The workload object benchmarks measured: repeated pointer-chasing over
     a working set that fits in memory — under both Handle designs, to
     check the paper's "without hurting those of main memory navigation". *)
  let run kind =
    let cfg =
      {
        (Generator.config ~scale:ctx.scale `Deep Generator.Class_clustered) with
        Generator.handle_kind = kind;
      }
    in
    let b = Generator.build ~cost:(Tb_sim.Cost_model.scaled ctx.scale) cfg in
    let db = b.Generator.db in
    let sim = Tb_store.Database.sim db in
    (* A working set small enough that its pages fit the client cache and
       its Handles fit the zombie pool. *)
    let ws_size =
      max 4 (min (cfg.Generator.client_pages / 8) (Array.length b.Generator.providers))
    in
    let working_set = Array.sub b.Generator.providers 0 ws_size in
    let traverse () =
      Array.iter
        (fun prid ->
          let ph = Database.acquire db prid in
          Database.iter_set db (Database.get_att db ph "clients") (fun r ->
              match r with
              | Tb_store.Value.Ref crid ->
                  let ch = Database.acquire db crid in
                  ignore (Database.get_att db ch "age");
                  Database.unref db ch
              | _ -> ());
          Database.unref db ph)
        working_set
    in
    Database.cold_restart db;
    Tb_sim.Sim.reset sim;
    traverse ();
    let cold_s = Tb_sim.Sim.elapsed_s sim in
    Tb_sim.Sim.reset sim;
    traverse ();
    traverse ();
    traverse ();
    let warm_s = Tb_sim.Sim.elapsed_s sim /. 3.0 in
    let warm_reads = sim.Tb_sim.Sim.counters.Tb_sim.Counters.disk_reads in
    let warm_allocs = sim.Tb_sim.Sim.counters.Tb_sim.Counters.handle_allocs in
    (cold_s, warm_s, warm_reads, warm_allocs)
  in
  let fat_cold, fat_warm, fat_reads, fat_allocs = run Tb_sim.Cost_model.Fat in
  let compact_cold, compact_warm, _, _ = run Tb_sim.Cost_model.Compact in
  Format.fprintf ppf "%s@."
    (Table_fmt.render
       ~title:"Traversal of a resident working set of providers and their clients"
       ~header:
         [ "Handles"; "Cold pass (s)"; "Warm pass (s)"; "Warm reads"; "Warm allocs" ]
       [
         [
           "fat (O2)";
           Printf.sprintf "%.4f" fat_cold;
           Printf.sprintf "%.4f" fat_warm;
           string_of_int fat_reads;
           string_of_int fat_allocs;
         ];
         [
           "compact (proposed)";
           Printf.sprintf "%.4f" compact_cold;
           Printf.sprintf "%.4f" compact_warm;
           "-";
           "-";
         ];
       ]);
  Format.fprintf ppf
    "Warm traversal performs no I/O and no Handle allocation (delayed \
     destruction pays off),@.so both designs cost the same warm — while the \
     compact design is cheaper cold.  This is@.why the problem \"went \
     undetected\": object benchmarks only measured the warm rows.@."

let all ctx ppf =
  fig6 ctx ppf;
  fig7 ctx ppf;
  fig9 ctx ppf;
  fig11 ctx ppf;
  fig13 ctx ppf;
  fig10 ctx ppf;
  release ctx `Wide Generator.Class_clustered;
  release ctx `Wide Generator.Composition;
  fig12 ctx ppf;
  fig14 ctx ppf;
  fig15 ctx ppf;
  hybrid ctx ppf;
  sortjoin ctx ppf;
  aggregates ctx ppf;
  costmodel ctx ppf;
  ctx.builts <- [];
  warm ctx ppf;
  oo7 ctx ppf;
  loading ctx ppf;
  handles ctx ppf;
  assoc ctx ppf

let names =
  [
    "fig6";
    "fig7";
    "fig9";
    "fig10";
    "fig11";
    "fig12";
    "fig13";
    "fig14";
    "fig15";
    "loading";
    "handles";
    "assoc";
    "hybrid";
    "sortjoin";
    "warm";
    "aggregates";
    "oo7";
    "costmodel";
    "all";
  ]

let by_name = function
  | "fig6" -> fig6
  | "fig7" -> fig7
  | "fig9" -> fig9
  | "fig10" -> fig10
  | "fig11" -> fig11
  | "fig12" -> fig12
  | "fig13" -> fig13
  | "fig14" -> fig14
  | "fig15" -> fig15
  | "loading" -> loading
  | "handles" -> handles
  | "assoc" -> assoc
  | "hybrid" -> hybrid
  | "sortjoin" -> sortjoin
  | "warm" -> warm
  | "aggregates" -> aggregates
  | "oo7" -> oo7
  | "costmodel" -> costmodel
  | "all" -> all
  | _ -> raise Not_found
