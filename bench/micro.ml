(* The Bechamel micro suite: one wall-clock benchmark per paper table,
   exercising the code path that dominates it, at a tiny fixed scale.
   Shared by bench/main.exe (--micro) and bench/perf_gate.exe, so the
   interactive listing and the regression gate always measure the same
   thing. *)

let bench_cfg () =
  {
    (Tb_derby.Generator.config ~scale:500 `Deep
       Tb_derby.Generator.Class_clustered)
    with
    Tb_derby.Generator.n_providers = 200;
    fanout = 3;
  }

let built =
  lazy (Tb_derby.Generator.build ~cost:(Tb_sim.Cost_model.scaled 500) (bench_cfg ()))

let sharded_built =
  lazy
    (Tb_derby.Generator.build_sharded ~cost:(Tb_sim.Cost_model.scaled 500)
       ~shards:4 (bench_cfg ()))

let replicated_built =
  lazy
    (Tb_derby.Generator.build_sharded ~cost:(Tb_sim.Cost_model.scaled 500)
       ~shards:4 ~replicas:2 (bench_cfg ()))

let run_query ?force_algo ?force_seq ?force_sorted ?packed ?batch q () =
  let b = Lazy.force built in
  Tb_store.Database.cold_restart b.Tb_derby.Generator.db;
  let r =
    Tb_query.Planner.run b.Tb_derby.Generator.db q ?force_algo ?force_seq
      ?force_sorted ?packed ?batch ~keep:false
  in
  let n = Tb_query.Query_result.count r in
  Tb_query.Query_result.dispose r;
  n

let join_q =
  lazy
    (let b = Lazy.force built in
     let nc = Array.length b.Tb_derby.Generator.patients in
     let np = Array.length b.Tb_derby.Generator.providers in
     Printf.sprintf
       "select [p.name, pa.age] from p in Providers, pa in p.clients where \
        pa.mrn < %d and p.upin < %d"
       (nc / 2) (np / 2))

let sel_q =
  lazy
    (let b = Lazy.force built in
     Printf.sprintf "select pa.age from pa in Patients where pa.num < %d"
       (Array.length b.Tb_derby.Generator.patients / 2))

let opt_stats =
  lazy
    (let b = Lazy.force built in
     Tb_statcore.Stat_catalog.analyze b.Tb_derby.Generator.db)

let tests () =
  let open Bechamel in
  let t name f = Test.make ~name (Staged.stage f) in
  [
    (* Figure 6: selection through an unclustered index, unsorted. *)
    t "fig6.index_scan" (fun () ->
        run_query ~force_sorted:false (Lazy.force sel_q) ());
    (* The optimizer itself: enumerate + cost + pick over the Figure 6
       selectivity sweep, no execution — bounds what `--optimize` adds on
       top of a forced run.  The catalog is analyzed once and retained,
       as a session would. *)
    t "fig6.optimizer_sweep" (fun () ->
        let b = Lazy.force built in
        let db = b.Tb_derby.Generator.db in
        let stats = Lazy.force opt_stats in
        let n = Array.length b.Tb_derby.Generator.patients in
        List.fold_left
          (fun acc permille ->
            let d =
              Tb_query.Planner.optimize ~stats db
                (Printf.sprintf
                   "select pa.age from pa in Patients where pa.num < %d"
                   (permille * n / 1000))
            in
            acc + List.length d.Tb_query.Planner.d_candidates)
          0
          [ 1; 10; 50; 100; 300; 600; 900 ]);
    (* Figure 7: the sorted variant and the full scan it competes with. *)
    t "fig7.sorted_index_scan" (fun () ->
        run_query ~force_sorted:true (Lazy.force sel_q) ());
    t "fig7.full_scan" (fun () -> run_query ~force_seq:true (Lazy.force sel_q) ());
    (* The same scan fanned out over 4 shards: wall-clock cost of the
       sharded interpreter (simulated elapsed is the shard sweep's job). *)
    t "fig7.sharded_scan" (fun () ->
        let b = Lazy.force sharded_built in
        let smap = b.Tb_derby.Generator.smap in
        Tb_store.Shard_map.cold_restart smap;
        let r, _, _, _ =
          Tb_query.Planner.run_sharded_explained smap (Lazy.force sel_q)
            ~force_seq:true ~keep:false
        in
        let n = Tb_query.Query_result.count r in
        Tb_query.Query_result.dispose r;
        n);
    (* The same sharded scan with one shard killed at its first exchange
       boundary: wall-clock cost of detecting the crash, promoting the
       follower (WAL catch-up + checksum walk) and re-driving the lane.
       Each iteration restores original placement and re-arms the kill so
       every run pays the same promotion. *)
    t "fig7.sharded_scan_degraded" (fun () ->
        let b = Lazy.force replicated_built in
        let smap = b.Tb_derby.Generator.smap in
        Tb_store.Shard_map.repair smap;
        let reg = Tb_storage.Fault.registry ~seed:7 ~shards:4 in
        Tb_store.Shard_map.set_fault_registry smap (Some reg);
        Tb_storage.Fault.schedule_shard_crash
          (Tb_storage.Fault.shard_fault reg 2)
          ~at_boundary:1;
        Tb_store.Shard_map.cold_restart smap;
        let r, _, _, _ =
          Tb_query.Planner.run_sharded_explained smap (Lazy.force sel_q)
            ~force_seq:true ~keep:false
        in
        let n = Tb_query.Query_result.count r in
        Tb_query.Query_result.dispose r;
        n);
    (* The packed engine floor under fig7: the same selection evaluated
       directly on record bytes — acquire, pin, seek, compare — without
       the planner/materialize shell around it. *)
    t "fig7.packed_scan" (fun () ->
        let b = Lazy.force built in
        let db = b.Tb_derby.Generator.db in
        Tb_store.Database.cold_restart db;
        let nc = Array.length b.Tb_derby.Generator.patients in
        let prog =
          Tb_query.Packed.compile db ~cls:Tb_derby.Derby.patient_cls
            ~preds:
              [
                {
                  Tb_query.Plan.attr = "num";
                  cmp = Tb_query.Oql_ast.Lt;
                  const = Tb_store.Value.Int (nc / 2);
                };
              ]
            ()
        in
        let n = ref 0 in
        Array.iter
          (fun rid ->
            let h = Tb_store.Database.acquire db rid in
            if Tb_store.Database.is_packed db h then begin
              let buf = Tb_query.Packed.seek db prog h in
              if Tb_query.Packed.eval_preds db prog buf then incr n
            end;
            Tb_store.Database.unref db h)
          b.Tb_derby.Generator.patients;
        !n);
    (* Figures 11-14: one test per join algorithm. *)
    t "fig11_14.nl" (fun () ->
        run_query ~force_algo:Tb_query.Plan.NL (Lazy.force join_q) ());
    t "fig11_14.nojoin" (fun () ->
        run_query ~force_algo:Tb_query.Plan.NOJOIN (Lazy.force join_q) ());
    t "fig11_14.phj" (fun () ->
        run_query ~force_algo:Tb_query.Plan.PHJ (Lazy.force join_q) ());
    t "fig11_14.chj" (fun () ->
        run_query ~force_algo:Tb_query.Plan.CHJ (Lazy.force join_q) ());
    (* Extensions: hybrid hashing and sort-merge. *)
    t "ext.phhj" (fun () ->
        run_query ~force_algo:Tb_query.Plan.PHHJ (Lazy.force join_q) ());
    t "ext.smj" (fun () ->
        run_query ~force_algo:Tb_query.Plan.SMJ (Lazy.force join_q) ());
    (* Aggregation vs materialization. *)
    t "ext.count" (fun () ->
        let b = Lazy.force built in
        let nc = Array.length b.Tb_derby.Generator.patients in
        run_query ~force_seq:true
          (Printf.sprintf "select count(pa) from pa in Patients where pa.num < %d" (nc / 2))
          ());
    (* Figure 10: hash-table build over every patient. *)
    t "fig10.hash_build" (fun () ->
        let b = Lazy.force built in
        let sim = Tb_store.Database.sim b.Tb_derby.Generator.db in
        let h = Tb_query.Mem_hash.create sim in
        Array.iter
          (fun rid -> Tb_query.Mem_hash.add h ~key:rid ~payload_bytes:13 0)
          b.Tb_derby.Generator.patients;
        Tb_query.Mem_hash.dispose h);
    (* Figure 9 / Section 4: the Handle churn of a full scan. *)
    t "fig9.handle_churn" (fun () ->
        let b = Lazy.force built in
        let db = b.Tb_derby.Generator.db in
        Array.iter
          (fun rid ->
            let h = Tb_store.Database.acquire db rid in
            Tb_store.Database.unref db h)
          b.Tb_derby.Generator.patients);
    (* The same churn with one attribute read per Handle: the packed repr
       decodes it straight off the pinned page instead of materializing
       the record. *)
    t "fig9.packed_churn" (fun () ->
        let b = Lazy.force built in
        let db = b.Tb_derby.Generator.db in
        let slot =
          Tb_store.Database.attr_slot db ~cls:Tb_derby.Derby.patient_cls "mrn"
        in
        Array.iter
          (fun rid ->
            let h = Tb_store.Database.acquire db rid in
            ignore (Tb_store.Database.get_att_slot db h slot);
            Tb_store.Database.unref db h)
          b.Tb_derby.Generator.patients);
    (* Section 3.2: B+-tree build, the first-index path. *)
    t "sec3.btree_insert_1k" (fun () ->
        let sim = Tb_sim.Sim.create (Tb_sim.Cost_model.scaled 500) in
        let disk = Tb_storage.Disk.create sim in
        let stack =
          Tb_storage.Cache_stack.create sim disk ~server_pages:64
            ~client_pages:256
        in
        let tree = Tb_store.Btree.create stack ~name:"bench" in
        for i = 0 to 999 do
          Tb_store.Btree.insert tree ~key:(i * 37 mod 1000)
            ~rid:(Tb_storage.Rid.make ~file:0 ~page:i ~slot:0)
        done);
    (* 1000 entries through the bulk-build path, fed the already-sorted run
       that Database.create_index produces over a clustered extent — the
       production fast case.  The ratio against sec3.btree_insert_1k (the
       same entry count built incrementally) is the bulk-build speedup the
       gate watches. *)
    t "sec3.btree_bulk_build_1k"
      (let run =
         (* Built once: the run is the bench input, not bulk-build work. *)
         Array.init 1000 (fun i ->
             (i, Tb_storage.Rid.make ~file:0 ~page:i ~slot:0))
       in
       fun () ->
         let sim = Tb_sim.Sim.create (Tb_sim.Cost_model.scaled 500) in
         let disk = Tb_storage.Disk.create sim in
         let stack =
           Tb_storage.Cache_stack.create sim disk ~server_pages:64
             ~client_pages:256
         in
         ignore (Tb_store.Btree.bulk_build stack ~name:"bench" run));
    (* Build then drain: exercises borrow/merge rebalancing and height
       shrink. *)
    t "sec3.btree_delete_1k" (fun () ->
        let sim = Tb_sim.Sim.create (Tb_sim.Cost_model.scaled 500) in
        let disk = Tb_storage.Disk.create sim in
        let stack =
          Tb_storage.Cache_stack.create sim disk ~server_pages:64
            ~client_pages:256
        in
        let tree = Tb_store.Btree.create stack ~name:"bench" in
        for i = 0 to 999 do
          Tb_store.Btree.insert tree ~key:(i * 37 mod 1000)
            ~rid:(Tb_storage.Rid.make ~file:0 ~page:i ~slot:0)
        done;
        for i = 0 to 999 do
          ignore
            (Tb_store.Btree.delete tree ~key:(i * 37 mod 1000)
               ~rid:(Tb_storage.Rid.make ~file:0 ~page:i ~slot:0))
        done);
    (* Figure 6's index half in isolation: a cold range scan over the
       clustered mrn index (leaf-chain walk through the cache stack). *)
    t "fig6.index_range" (fun () ->
        let b = Lazy.force built in
        Tb_store.Database.cold_restart b.Tb_derby.Generator.db;
        let tree = b.Tb_derby.Generator.mrn_index.Tb_store.Index_def.tree in
        let n = ref 0 in
        Tb_store.Btree.range tree ~lo:0
          ~hi:(Array.length b.Tb_derby.Generator.patients / 2)
          (fun _ _ -> incr n);
        !n);
  ]

(* Benchmark names come back as "treebench/<name>". *)
let strip_group name =
  match String.index_opt name '/' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* Run a test list and return [(name, ns_per_run)], sorted by name. *)
let estimates_of ~quota tests =
  let open Bechamel in
  let grouped = Test.make_grouped ~name:"treebench" tests in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second quota) () in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  let rows = ref [] in
  Hashtbl.iter
    (fun _measure tbl ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some (est :: _) -> rows := (strip_group name, est) :: !rows
          | Some [] | None -> ())
        tbl)
    merged;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !rows

let estimates ~quota () = estimates_of ~quota (tests ())

(* Shard-count sweep over the fig7 full scan, in *simulated* elapsed time:
   the near-linear fork/join speedup, with the Gather merge cost bending
   the curve.  Deterministic — one cold run per shard count, no Bechamel;
   each S gets its own freshly built partitioning. *)
let shard_sweep ~shards_list () =
  List.map
    (fun shards ->
      let b =
        Tb_derby.Generator.build_sharded ~cost:(Tb_sim.Cost_model.scaled 500)
          ~shards (bench_cfg ())
      in
      let smap = b.Tb_derby.Generator.smap in
      Tb_store.Shard_map.cold_restart smap;
      let q =
        Printf.sprintf "select pa.age from pa in Patients where pa.num < %d"
          (Array.length b.Tb_derby.Generator.sh_patients / 2)
      in
      let r, _, _, lanes =
        Tb_query.Planner.run_sharded_explained smap q ~force_seq:true
          ~keep:false
      in
      Tb_query.Query_result.dispose r;
      (shards, lanes))
    shards_list

(* Batch-size sweep over the fig7 full scan: how much interpreter dispatch
   the row vectors amortize.  Charge-invariant by construction (the parity
   test pins that), so this is wall-clock tuning data only — deliberately
   not part of [tests ()], the perf_gate baseline tracks the default. *)
let batch_sweep ~quota ~batches () =
  let open Bechamel in
  let tests =
    List.map
      (fun batch ->
        Test.make
          ~name:(Printf.sprintf "fig7.full_scan.b%d" batch)
          (Staged.stage (fun () ->
               run_query ~force_seq:true ~batch (Lazy.force sel_q) ())))
      batches
  in
  estimates_of ~quota tests
