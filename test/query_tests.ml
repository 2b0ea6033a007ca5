(* Tests for the OQL front end, the executor's five operators and the two
   planners. *)

open Tb_query
module Value = Tb_store.Value
module Database = Tb_store.Database
module Sc = Tb_statcore.Stat_catalog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- lexer / parser --- *)

let test_lexer () =
  let toks = Oql_lexer.tokenize "select p.name from p in Providers where p.upin <= 10" in
  check_int "token count" 15 (List.length toks);
  check_bool "keywords case-insensitive" true
    (List.hd (Oql_lexer.tokenize "SELECT x FROM y IN Z") = Oql_lexer.SELECT);
  check_bool "bad char rejected" true
    (match Oql_lexer.tokenize "a # b" with
    | exception Oql_lexer.Lex_error _ -> true
    | _ -> false)

let test_parser_paper_query () =
  let q =
    Oql_parser.parse
      "select [p.name, pa.age] from p in Providers, pa in p.clients where \
       pa.mrn < 100 and p.upin < 10"
  in
  check_int "two bindings" 2 (List.length q.Oql_ast.from);
  (match q.Oql_ast.select with
  | Oql_ast.Rows
      (Oql_ast.Mk_tuple
        [ ("name", Oql_ast.Path ("p", "name")); ("age", Oql_ast.Path ("pa", "age")) ])
    ->
      ()
  | _ -> Alcotest.fail "unexpected select shape");
  check_int "two conjuncts" 2 (List.length (Oql_ast.conjuncts q.Oql_ast.where));
  (* Round-trip through the printer re-parses to the same AST. *)
  let printed = Format.asprintf "%a" Oql_ast.pp_query q in
  check_bool "pp/parse roundtrip" true (Oql_parser.parse printed = q)

let test_parser_errors () =
  let bad s =
    match Oql_parser.parse s with
    | exception Oql_parser.Parse_error _ -> true
    | _ -> false
  in
  check_bool "missing from" true (bad "select x where x.a < 1");
  check_bool "dangling and" true (bad "select x from x in E where x.a < 1 and");
  check_bool "trailing junk" true (bad "select x from x in E 42")

let test_parser_literals () =
  let p = Oql_parser.parse_pred "x.sex = 'F' and x.name = \"abc\" and x.ok = true" in
  check_int "three conjuncts" 3 (List.length (Oql_ast.conjuncts p))

(* --- a small Derby database for execution tests --- *)

let small_built ?(organization = Tb_derby.Generator.Class_clustered) ?(fanout = 4)
    ?(n_providers = 25) ?(scale = 1000) () =
  let cfg =
    {
      (Tb_derby.Generator.config ~scale `Deep organization) with
      Tb_derby.Generator.n_providers;
      fanout;
    }
  in
  Tb_derby.Generator.build ~cost:(Tb_sim.Cost_model.scaled scale) cfg

let paper_query k1 k2 =
  Printf.sprintf
    "select [p.name, pa.age] from p in Providers, pa in p.clients where \
     pa.mrn < %d and p.upin < %d"
    k1 k2

(* Ground truth straight from the generator's assignment. *)
let expected_pairs (built : Tb_derby.Generator.built) k1 k2 =
  let nc = Array.length built.Tb_derby.Generator.patients in
  let fanout = built.Tb_derby.Generator.cfg.Tb_derby.Generator.fanout in
  ignore fanout;
  let count = ref 0 in
  for j = 0 to min (k1 - 1) (nc - 1) do
    (* provider of patient j: recover via the database. *)
    let _, v = Database.read_object built.Tb_derby.Generator.db built.Tb_derby.Generator.patients.(j) in
    let prid = Value.to_ref (Value.field v "primary_care_provider") in
    let _, pv = Database.read_object built.Tb_derby.Generator.db prid in
    if Value.to_int (Value.field pv "upin") < k2 then incr count
  done;
  !count

let sort_values vs = List.sort compare (List.map (Format.asprintf "%a" Value.pp) vs)

let test_all_algorithms_agree () =
  List.iter
    (fun organization ->
      let built = small_built ~organization () in
      let db = built.Tb_derby.Generator.db in
      let expected = expected_pairs built 60 15 in
      Database.cold_restart db;
      let reference = ref None in
      List.iter
        (fun algo ->
          Database.cold_restart db;
          let r =
            Planner.run db (paper_query 60 15) ~force_algo:algo ~keep:true
          in
          check_int
            (Printf.sprintf "%s count" (Plan.algo_name algo))
            expected (Query_result.count r);
          let digest = sort_values (Query_result.values r) in
          (match !reference with
          | None -> reference := Some digest
          | Some d ->
              check_bool
                (Printf.sprintf "%s same multiset" (Plan.algo_name algo))
                true (d = digest));
          Query_result.dispose r)
        [
          Plan.NL;
          Plan.NOJOIN;
          Plan.PHJ;
          Plan.CHJ;
          Plan.PHHJ;
          Plan.CHHJ;
          Plan.SMJ;
        ])
    [
      Tb_derby.Generator.Class_clustered;
      Tb_derby.Generator.Randomized;
      Tb_derby.Generator.Composition;
      Tb_derby.Generator.Assoc_ordered;
    ]

let algorithms_agree_prop =
  QCheck.Test.make ~name:"join algorithms agree on random cut-offs" ~count:12
    QCheck.(pair (int_range 0 110) (int_range 0 30))
    (fun (k1, k2) ->
      let built = small_built () in
      let db = built.Tb_derby.Generator.db in
      let counts =
        List.map
          (fun algo ->
            Database.cold_restart db;
            let r = Planner.run db (paper_query k1 k2) ~force_algo:algo ~keep:false in
            let c = Query_result.count r in
            Query_result.dispose r;
            c)
          [ Plan.NL; Plan.NOJOIN; Plan.PHJ; Plan.CHJ; Plan.PHHJ; Plan.CHHJ; Plan.SMJ ]
      in
      match counts with
      | c :: rest -> List.for_all (Int.equal c) rest
      | [] -> false)

let test_selection_correctness () =
  let built = small_built () in
  let db = built.Tb_derby.Generator.db in
  (* num is a random permutation of 0..nc-1, so num < k selects exactly k. *)
  let r =
    Planner.run db "select pa.age from pa in Patients where pa.num < 40" ~keep:true
  in
  check_int "selectivity exact" 40 (Query_result.count r);
  Query_result.dispose r;
  (* Same through a sequential scan. *)
  let r2 =
    Planner.run db "select pa.age from pa in Patients where pa.num < 40"
      ~force_seq:true ~keep:true
  in
  check_int "scan agrees" 40 (Query_result.count r2);
  Query_result.dispose r2

let test_sorted_vs_unsorted_same_rows () =
  let built = small_built ~n_providers:50 () in
  let db = built.Tb_derby.Generator.db in
  let q = "select pa.name from pa in Patients where pa.num < 150" in
  Database.cold_restart db;
  let a = Planner.run db q ~force_sorted:false ~keep:true in
  Database.cold_restart db;
  let b = Planner.run db q ~force_sorted:true ~keep:true in
  check_bool "same rows" true
    (sort_values (Query_result.values a) = sort_values (Query_result.values b));
  Query_result.dispose a;
  Query_result.dispose b

let test_sorted_index_scan_beats_unsorted_at_high_selectivity () =
  (* Section 4.2: with a random key and high selectivity, fetching in index
     order re-reads pages; sorting the Rids first makes one pass. *)
  let built = small_built ~n_providers:400 ~fanout:3 () in
  let db = built.Tb_derby.Generator.db in
  let sim = Database.sim db in
  let q = "select pa.age from pa in Patients where pa.num < 1080" in
  Database.cold_restart db;
  Tb_sim.Sim.reset sim;
  let r = Planner.run db q ~force_sorted:false ~keep:false in
  Query_result.dispose r;
  let unsorted_reads = sim.Tb_sim.Sim.counters.Tb_sim.Counters.disk_reads in
  let unsorted_time = Tb_sim.Sim.elapsed_s sim in
  Database.cold_restart db;
  Tb_sim.Sim.reset sim;
  let r = Planner.run db q ~force_sorted:true ~keep:false in
  Query_result.dispose r;
  let sorted_reads = sim.Tb_sim.Sim.counters.Tb_sim.Counters.disk_reads in
  let sorted_time = Tb_sim.Sim.elapsed_s sim in
  check_bool "sorted reads fewer pages" true (sorted_reads < unsorted_reads);
  check_bool "sorted is faster" true (sorted_time < unsorted_time)

let test_identity_projection_skips_handles () =
  (* select pa from ... with an index: no object needs materialising. *)
  let built = small_built () in
  let db = built.Tb_derby.Generator.db in
  let sim = Database.sim db in
  Database.cold_restart db;
  Tb_sim.Sim.reset sim;
  let r = Planner.run db "select pa from pa in Patients where pa.num < 10" ~keep:true in
  check_int "rows" 10 (Query_result.count r);
  check_int "no handles" 0 sim.Tb_sim.Sim.counters.Tb_sim.Counters.handle_allocs;
  Query_result.dispose r

(* --- binder --- *)

let test_bind_errors () =
  let built = small_built () in
  let db = built.Tb_derby.Generator.db in
  let bad_unsupported s =
    match Plan.bind db (Oql_parser.parse s) with
    | exception Plan.Unsupported _ -> true
    | _ -> false
  in
  check_bool "unknown extent" true (bad_unsupported "select x from x in Nowhere");
  check_bool "unknown attribute" true
    (bad_unsupported "select x.zzz from x in Patients where x.zzz < 1");
  check_bool "var-to-var predicate unsupported" true
    (bad_unsupported
       "select [p.name, pa.age] from p in Providers, pa in p.clients where \
        pa.mrn < p.upin")

let test_bind_infers_inverse () =
  let built = small_built () in
  let db = built.Tb_derby.Generator.db in
  match
    Plan.bind db (Oql_parser.parse "select pa from p in Providers, pa in p.clients")
  with
  | Plan.B_hier { inv_attr; set_attr; parent_cls; child_cls; _ } ->
      check_string "set attr" "clients" set_attr;
      check_string "parent" "Provider" parent_cls;
      check_string "child" "Patient" child_cls;
      check_bool "inverse found" true (inv_attr = Some "primary_care_provider")
  | _ -> Alcotest.fail "expected a hierarchical join"

(* --- planner --- *)

let test_heuristic_planner_is_navigation_biased () =
  let built = small_built () in
  let db = built.Tb_derby.Generator.db in
  match
    Planner.plan ~force_algo:Plan.NL ~force_sorted:false db
      (Oql_parser.parse (paper_query 50 10))
  with
  | Plan.Hier_join { algo = Plan.NL; _ } -> ()
  | p -> Alcotest.fail (Format.asprintf "expected NL, got %a" Plan.pp p)

let test_heuristic_selection_takes_index_unsorted () =
  let built = small_built () in
  let db = built.Tb_derby.Generator.db in
  match
    Planner.plan ~force_algo:Plan.NL ~force_sorted:false db
      (Oql_parser.parse "select pa.age from pa in Patients where pa.num < 10")
  with
  | Plan.Selection { access = Plan.Index_scan { sorted = false; _ }; _ } -> ()
  | p -> Alcotest.fail (Format.asprintf "expected unsorted index scan, got %a" Plan.pp p)

let test_cost_based_selection_sorts () =
  (* A random key (num), a file well beyond the client cache, moderate
     selectivity: fetching in index order would thrash, so the cost-based
     planner must sort the Rids first (Section 4.2's lesson). *)
  let built = small_built ~n_providers:400 ~fanout:3 () in
  let db = built.Tb_derby.Generator.db in
  match
    Planner.plan db
      (Oql_parser.parse "select pa.age from pa in Patients where pa.num < 480")
  with
  | Plan.Selection { access = Plan.Index_scan { sorted = true; _ }; _ } -> ()
  | p -> Alcotest.fail (Format.asprintf "unexpected plan %a" Plan.pp p)

let test_cost_based_join_prefers_navigation_under_composition () =
  (* Figure 13's regime at paper scale: 2,000 providers and 2M patients in
     one composition-clustered file; NL wins every cell. *)
  let built = small_built ~organization:Tb_derby.Generator.Composition () in
  let db = built.Tb_derby.Generator.db in
  let bound = Plan.bind db (Oql_parser.parse (paper_query 1000 1000)) in
  let env =
    Planner.join_env (Sc.analyze db) bound
      ~organization:Estimate.Shared_composition
  in
  let env =
    {
      env with
      Estimate.cost = Tb_sim.Cost_model.default;
      Estimate.parent =
        {
          env.Estimate.parent with
          Estimate.card = 2_000;
          pages = 44_000;
          sel = 0.1;
          index_clustered = true;
        };
      child =
        {
          env.Estimate.child with
          Estimate.card = 2_000_000;
          pages = 44_000;
          sel = 0.1;
          (* mrn order no longer matches composition placement *)
          index_clustered = false;
        };
      fanout = 1_000.0;
      client_cache_pages = 8_192;
    }
  in
  match Estimate.rank_joins env with
  | (Plan.NL, _) :: _ -> ()
  | (a, _) :: _ ->
      Alcotest.fail (Printf.sprintf "expected NL to win, got %s" (Plan.algo_name a))
  | [] -> Alcotest.fail "no ranking"

let test_cost_based_join_prefers_hash_on_deep_class_clusters () =
  (* 1:3 shape, class clustering, low selectivities: Figure 12 says the
     hash joins win by an order of magnitude over navigation. *)
  let built = small_built () in
  let db = built.Tb_derby.Generator.db in
  let bound = Plan.bind db (Oql_parser.parse (paper_query 10 3)) in
  let env =
    Planner.join_env (Sc.analyze db) bound ~organization:Estimate.Separate_files
  in
  (* Force paper-scale statistics: 1M providers, 3M patients, 10%/10%. *)
  let env =
    {
      env with
      Estimate.cost = Tb_sim.Cost_model.default;
      Estimate.parent =
        { env.Estimate.parent with Estimate.card = 1_000_000; pages = 33_000; sel = 0.1 };
      child =
        { env.Estimate.child with Estimate.card = 3_000_000; pages = 49_000; sel = 0.1 };
      fanout = 3.0;
      client_cache_pages = 8_192;
    }
  in
  match Estimate.rank_joins env with
  | (Plan.PHJ, _) :: _ | (Plan.CHJ, _) :: _ -> ()
  | (a, _) :: _ ->
      Alcotest.fail (Printf.sprintf "expected a hash join to win, got %s" (Plan.algo_name a))
  | [] -> Alcotest.fail "no ranking"

let test_estimate_swap_degrades_hash () =
  (* Figure 12's 90/90 cell: hash tables outgrow memory and navigation
     takes over. *)
  let cost = Tb_sim.Cost_model.default in
  let side card pages =
    {
      Estimate.card;
      pages;
      sel = 0.9;
      has_index = true;
      index_clustered = true;
      payload_bytes = 29;
    }
  in
  let env =
    {
      Estimate.cost;
      organization = Estimate.Separate_files;
      client_cache_pages = 8_192;
      parent = side 1_000_000 33_000;
      child = side 3_000_000 49_000;
      fanout = 3.0;
      result_bytes_per_row = 40;
    }
  in
  let nojoin = Estimate.join_ms env Plan.NOJOIN in
  let phj = Estimate.join_ms env Plan.PHJ in
  let chj = Estimate.join_ms env Plan.CHJ in
  check_bool "NOJOIN beats PHJ when the table swaps" true (nojoin < phj);
  check_bool "NOJOIN beats CHJ when the table swaps" true (nojoin < chj)

(* --- extensions: hybrid hashing, sort-merge --- *)

let deep_90_90 b =
  let nc = Array.length b.Tb_derby.Generator.patients in
  let np = Array.length b.Tb_derby.Generator.providers in
  paper_query (90 * nc / 100) (90 * np / 100)

let test_hybrid_avoids_swap () =
  (* At the memory-bound Figure 12 cell, the hybrid variants must not
     thrash, and must run substantially faster than their in-memory
     counterparts. *)
  let built = small_built ~n_providers:3000 ~fanout:3 ~scale:800 () in
  let db = built.Tb_derby.Generator.db in
  let sim = Database.sim db in
  let q = deep_90_90 built in
  let run algo =
    Database.cold_restart db;
    Tb_sim.Sim.reset sim;
    let r = Planner.run db q ~force_algo:algo ~force_sorted:true ~keep:false in
    let count = Query_result.count r in
    Query_result.dispose r;
    (Tb_sim.Sim.elapsed_s sim, sim.Tb_sim.Sim.counters.Tb_sim.Counters.swap_faults, count)
  in
  let chj_t, chj_faults, chj_n = run Plan.CHJ in
  let chhj_t, chhj_faults, chhj_n = run Plan.CHHJ in
  check_int "same rows" chj_n chhj_n;
  check_bool "plain CHJ thrashes here" true (chj_faults > 100);
  check_bool "hybrid barely faults" true (chhj_faults < chj_faults / 10);
  check_bool "hybrid is much faster" true (chhj_t < chj_t /. 1.5)

let test_hybrid_spills_to_real_pages () =
  let built = small_built ~n_providers:3000 ~fanout:3 ~scale:800 () in
  let db = built.Tb_derby.Generator.db in
  let sim = Database.sim db in
  let q = deep_90_90 built in
  let plan =
    Planner.plan db (Oql_parser.parse q) ~force_algo:Plan.CHHJ ~force_sorted:true
  in
  (match plan with
  | Plan.Hier_join { partitions; _ } ->
      check_bool "multiple partitions planned" true (partitions > 1)
  | Plan.Selection _ -> Alcotest.fail "expected a join");
  Database.cold_restart db;
  Tb_sim.Sim.reset sim;
  let writes_before = sim.Tb_sim.Sim.counters.Tb_sim.Counters.disk_writes in
  let r = Exec.run db (Planner.lower plan) ~keep:false in
  Query_result.dispose r;
  Tb_storage.Cache_stack.flush (Database.stack db);
  check_bool "spill traffic reached the disk" true
    (sim.Tb_sim.Sim.counters.Tb_sim.Counters.disk_writes > writes_before)

let test_smj_loses_in_memory () =
  (* The authors' observation: in the regime where everything fits, the
     sort-based join is not better than the hash-based ones. *)
  let built = small_built ~n_providers:400 ~fanout:3 () in
  let db = built.Tb_derby.Generator.db in
  let sim = Database.sim db in
  let nc = Array.length built.Tb_derby.Generator.patients in
  let np = Array.length built.Tb_derby.Generator.providers in
  let q = paper_query (nc / 10) (np / 10) in
  let time algo =
    Database.cold_restart db;
    Tb_sim.Sim.reset sim;
    let r = Planner.run db q ~force_algo:algo ~force_sorted:true ~keep:false in
    Query_result.dispose r;
    Tb_sim.Sim.elapsed_s sim
  in
  check_bool "SMJ not faster than PHJ" true (time Plan.SMJ >= time Plan.PHJ)

let test_planner_considers_hybrids_under_pressure () =
  (* With paper-scale statistics and the deep 90/90 regime, the cost-based
     ranking must place the spilling variants above the thrashing in-memory
     hash joins. *)
  let cost = Tb_sim.Cost_model.default in
  let side card pages =
    {
      Estimate.card;
      pages;
      sel = 0.9;
      has_index = true;
      index_clustered = true;
      payload_bytes = 29;
    }
  in
  let env =
    {
      Estimate.cost;
      organization = Estimate.Separate_files;
      client_cache_pages = 8_192;
      parent = side 1_000_000 33_000;
      child = side 3_000_000 49_000;
      fanout = 3.0;
      result_bytes_per_row = 40;
    }
  in
  let ranking = Estimate.rank_joins env in
  let pos a =
    match List.find_index (fun (x, _) -> x = a) ranking with
    | Some i -> i
    | None -> Alcotest.fail "algorithm missing from ranking"
  in
  check_bool "CHHJ ranked above CHJ" true (pos Plan.CHHJ < pos Plan.CHJ);
  check_bool "PHHJ ranked above PHJ" true (pos Plan.PHHJ < pos Plan.PHJ)

(* --- aggregates --- *)

let test_aggregates_basic () =
  let built = small_built () in
  let db = built.Tb_derby.Generator.db in
  let run q =
    let r = Planner.run db q ~keep:true in
    let vs = Query_result.values r in
    Query_result.dispose r;
    vs
  in
  (match run "select count(pa) from pa in Patients where pa.num < 40" with
  | [ Value.Int 40 ] -> ()
  | vs -> Alcotest.failf "count: got %s" (String.concat ";" (List.map (Format.asprintf "%a" Value.pp) vs)));
  (* mrn is 0..99 over the whole extent: check sum/min/max/avg. *)
  (match run "select sum(pa.mrn) from pa in Patients" with
  | [ Value.Int s ] -> check_int "sum of 0..99" (99 * 100 / 2) s
  | _ -> Alcotest.fail "sum");
  (match run "select min(pa.mrn) from pa in Patients" with
  | [ Value.Int 0 ] -> ()
  | _ -> Alcotest.fail "min");
  (match run "select max(pa.mrn) from pa in Patients" with
  | [ Value.Int 99 ] -> ()
  | _ -> Alcotest.fail "max");
  (match run "select avg(pa.mrn) from pa in Patients" with
  | [ Value.Real a ] -> check_bool "avg" true (abs_float (a -. 49.5) < 1e-9)
  | _ -> Alcotest.fail "avg")

let test_aggregate_empty () =
  let built = small_built () in
  let db = built.Tb_derby.Generator.db in
  let r = Planner.run db "select count(pa) from pa in Patients where pa.num < 0" ~keep:true in
  (match Query_result.values r with
  | [ Value.Int 0 ] -> ()
  | _ -> Alcotest.fail "count over empty set is 0");
  Query_result.dispose r;
  let r = Planner.run db "select avg(pa.mrn) from pa in Patients where pa.num < 0" ~keep:true in
  check_int "avg over empty set is undefined" 0 (Query_result.count r);
  Query_result.dispose r

let test_aggregate_over_join () =
  let built = small_built () in
  let db = built.Tb_derby.Generator.db in
  let q =
    "select count(pa) from p in Providers, pa in p.clients where pa.mrn < 60 \
     and p.upin < 15"
  in
  let expected = expected_pairs built 60 15 in
  List.iter
    (fun algo ->
      Database.cold_restart db;
      let r = Planner.run db q ~force_algo:algo ~keep:true in
      (match Query_result.values r with
      | [ Value.Int n ] ->
          check_int (Printf.sprintf "count via %s" (Plan.algo_name algo)) expected n
      | _ -> Alcotest.fail "expected one integer");
      Query_result.dispose r)
    [ Plan.NL; Plan.NOJOIN; Plan.PHJ; Plan.CHJ; Plan.PHHJ; Plan.CHHJ; Plan.SMJ ]

let test_aggregate_skips_result_construction () =
  (* Section 4.2: materializing 1.8M elements costs ~18 minutes; folding
     them into a count should cost almost nothing by comparison. *)
  let built = small_built ~n_providers:400 ~fanout:3 () in
  let db = built.Tb_derby.Generator.db in
  let sim = Database.sim db in
  let time q =
    Database.cold_restart db;
    Tb_sim.Sim.reset sim;
    let r = Planner.run db q ~force_seq:true ~keep:false in
    Query_result.dispose r;
    Tb_sim.Sim.elapsed_s sim
  in
  let materialize = time "select pa.age from pa in Patients where pa.num < 1080" in
  let fold = time "select count(pa.age) from pa in Patients where pa.num < 1080" in
  check_bool "folding avoids the collection construction" true
    (materialize > 1.5 *. fold)

let test_aggregate_non_numeric_rejected () =
  let built = small_built () in
  let db = built.Tb_derby.Generator.db in
  check_bool "sum over strings rejected" true
    (match Planner.run db "select sum(pa.name) from pa in Patients" ~keep:true with
    | exception Invalid_argument _ -> true
    | r ->
        Query_result.dispose r;
        false)

(* --- mem_hash --- *)

let test_mem_hash () =
  let sim = Tb_sim.Sim.create (Tb_sim.Cost_model.scaled 100) in
  let h = Mem_hash.create sim in
  let key i = Tb_storage.Rid.make ~file:0 ~page:i ~slot:0 in
  Mem_hash.add h ~key:(key 1) ~payload_bytes:10 "a";
  Mem_hash.add h ~key:(key 1) ~payload_bytes:10 "b";
  Mem_hash.add h ~key:(key 2) ~payload_bytes:10 "c";
  Alcotest.(check (list string)) "group order" [ "a"; "b" ] (Mem_hash.find h ~key:(key 1));
  Alcotest.(check (list string)) "missing key" [] (Mem_hash.find h ~key:(key 9));
  check_int "groups" 2 (Mem_hash.group_count h);
  check_int "elements" 3 (Mem_hash.element_count h);
  let claimed = Tb_sim.Sim.working_bytes sim in
  check_bool "claims memory" true (claimed >= Mem_hash.size_bytes h);
  Mem_hash.dispose h;
  check_int "dispose releases" (claimed - Mem_hash.size_bytes h)
    (Tb_sim.Sim.working_bytes sim)

let suite =
  [
    Alcotest.test_case "lexer" `Quick test_lexer;
    Alcotest.test_case "parser: the paper's query" `Quick test_parser_paper_query;
    Alcotest.test_case "parser: errors" `Quick test_parser_errors;
    Alcotest.test_case "parser: literals" `Quick test_parser_literals;
    Alcotest.test_case "exec: all four algorithms agree (4 organizations)"
      `Slow test_all_algorithms_agree;
    QCheck_alcotest.to_alcotest algorithms_agree_prop;
    Alcotest.test_case "exec: selection correctness" `Quick
      test_selection_correctness;
    Alcotest.test_case "exec: sorted vs unsorted rows agree" `Quick
      test_sorted_vs_unsorted_same_rows;
    Alcotest.test_case "exec: sorted index scan wins at high selectivity"
      `Quick test_sorted_index_scan_beats_unsorted_at_high_selectivity;
    Alcotest.test_case "exec: identity projection needs no handles" `Quick
      test_identity_projection_skips_handles;
    Alcotest.test_case "bind: errors" `Quick test_bind_errors;
    Alcotest.test_case "bind: inverse inference" `Quick test_bind_infers_inverse;
    Alcotest.test_case "planner: heuristic is navigation-biased" `Quick
      test_heuristic_planner_is_navigation_biased;
    Alcotest.test_case "planner: heuristic index scans are unsorted" `Quick
      test_heuristic_selection_takes_index_unsorted;
    Alcotest.test_case "planner: cost-based sorts Rids" `Quick
      test_cost_based_selection_sorts;
    Alcotest.test_case "planner: composition favours navigation" `Quick
      test_cost_based_join_prefers_navigation_under_composition;
    Alcotest.test_case "planner: deep class clusters favour hash joins" `Quick
      test_cost_based_join_prefers_hash_on_deep_class_clusters;
    Alcotest.test_case "estimate: swap degrades hash joins" `Quick
      test_estimate_swap_degrades_hash;
    Alcotest.test_case "hybrid: avoids swap at 90/90" `Slow
      test_hybrid_avoids_swap;
    Alcotest.test_case "hybrid: real spill pages, partitions planned" `Slow
      test_hybrid_spills_to_real_pages;
    Alcotest.test_case "smj: loses in the in-memory regime" `Quick
      test_smj_loses_in_memory;
    Alcotest.test_case "estimate: hybrids beat plain hash under pressure"
      `Quick test_planner_considers_hybrids_under_pressure;
    Alcotest.test_case "aggregates: basics" `Quick test_aggregates_basic;
    Alcotest.test_case "aggregates: empty input" `Quick test_aggregate_empty;
    Alcotest.test_case "aggregates: over joins, all algorithms" `Slow
      test_aggregate_over_join;
    Alcotest.test_case "aggregates: skip result construction" `Quick
      test_aggregate_skips_result_construction;
    Alcotest.test_case "aggregates: non-numeric rejected" `Quick
      test_aggregate_non_numeric_rejected;
    Alcotest.test_case "mem_hash" `Quick test_mem_hash;
  ]
