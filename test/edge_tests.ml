(* Edge cases and failure injection across the stack. *)

open Tb_query
module Value = Tb_store.Value
module Schema = Tb_store.Schema
module Database = Tb_store.Database
module Rid = Tb_storage.Rid

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- storage --- *)

let test_page_slot_bounds () =
  let p = Tb_storage.Page_layout.create ~size:128 in
  check_bool "read out of range" true
    (match Tb_storage.Page_layout.read p 3 with
    | exception Not_found -> true
    | _ -> false);
  check_bool "delete out of range" true
    (match Tb_storage.Page_layout.delete p 0 with
    | exception Not_found -> true
    | _ -> false);
  check_bool "empty insert rejected" true
    (match Tb_storage.Page_layout.insert p (Bytes.create 0) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cache_read_your_writes_under_pressure () =
  (* Write a record, evict it through a tiny cache, read it back. *)
  let sim = Tb_sim.Sim.create (Tb_sim.Cost_model.scaled 100) in
  let disk = Tb_storage.Disk.create sim in
  let stack =
    Tb_storage.Cache_stack.create sim disk ~server_pages:2 ~client_pages:2
  in
  let hf = Tb_storage.Heap_file.create stack ~name:"h" in
  let rid = Tb_storage.Heap_file.insert hf (Bytes.of_string "precious") in
  (* Flood both caches. *)
  for _ = 1 to 40 do
    ignore (Tb_storage.Heap_file.insert hf (Bytes.make 600 'x'))
  done;
  Alcotest.(check string)
    "written data survives eviction" "precious"
    (Bytes.to_string (Tb_storage.Heap_file.read hf rid))

let test_big_collection_chunk_boundaries () =
  let sim = Tb_sim.Sim.create (Tb_sim.Cost_model.scaled 100) in
  let disk = Tb_storage.Disk.create sim in
  let stack =
    Tb_storage.Cache_stack.create sim disk ~server_pages:32 ~client_pages:64
  in
  let heap = Tb_storage.Heap_file.create stack ~name:"coll" in
  (* Elements sized so several land exactly on the packing boundary. *)
  List.iter
    (fun n ->
      let elems = List.init n (fun i -> Tb_store.Value.Int i) in
      let head = Tb_store.Big_collection.create heap elems in
      check_int
        (Printf.sprintf "roundtrip %d elements" n)
        n
        (Tb_store.Big_collection.length heap head);
      let back = Tb_store.Big_collection.to_list heap head in
      check_bool "order kept" true (List.for_all2 Tb_store.Value.equal elems back))
    [ 1; 639; 640; 641; 1280; 5000 ]

(* --- btree --- *)

let test_btree_empty_and_degenerate_ranges () =
  let sim = Tb_sim.Sim.create (Tb_sim.Cost_model.scaled 100) in
  let disk = Tb_storage.Disk.create sim in
  let stack =
    Tb_storage.Cache_stack.create sim disk ~server_pages:8 ~client_pages:16
  in
  let tree = Tb_store.Btree.create stack ~name:"t" in
  check_int "empty search" 0 (List.length (Tb_store.Btree.search tree ~key:5));
  check_bool "empty bounds" true (Tb_store.Btree.key_bounds tree = None);
  let n = ref 0 in
  Tb_store.Btree.range tree (fun _ _ -> incr n);
  check_int "empty range" 0 !n;
  for i = 0 to 99 do
    Tb_store.Btree.insert tree ~key:i ~rid:(Rid.make ~file:0 ~page:i ~slot:0)
  done;
  let m = ref 0 in
  Tb_store.Btree.range tree ~lo:50 ~hi:50 (fun _ _ -> incr m);
  check_int "lo = hi is empty" 0 !m;
  Tb_store.Btree.range tree ~lo:70 ~hi:60 (fun _ _ -> incr m);
  check_int "inverted range is empty" 0 !m

let btree_mixed_ops_invariants =
  QCheck.Test.make ~name:"btree: invariants across mixed insert/delete" ~count:25
    QCheck.(list_of_size (Gen.int_range 50 300) (pair (int_range 0 40) bool))
    (fun ops ->
      let sim = Tb_sim.Sim.create (Tb_sim.Cost_model.scaled 100) in
      let disk = Tb_storage.Disk.create sim in
      let stack =
        Tb_storage.Cache_stack.create sim disk ~server_pages:16 ~client_pages:64
      in
      let tree = Tb_store.Btree.create stack ~name:"t" in
      List.iteri
        (fun i (key, insert) ->
          let rid = Rid.make ~file:0 ~page:i ~slot:0 in
          if insert then Tb_store.Btree.insert tree ~key ~rid
          else ignore (Tb_store.Btree.delete tree ~key ~rid))
        ops;
      Tb_store.Btree.check_invariants tree;
      true)

(* --- OQL corner cases --- *)

let small_db () =
  let cfg =
    {
      (Tb_derby.Generator.config ~scale:1000 `Deep
         Tb_derby.Generator.Class_clustered)
      with
      Tb_derby.Generator.n_providers = 20;
      fanout = 5;
    }
  in
  Tb_derby.Generator.build ~cost:(Tb_sim.Cost_model.scaled 1000) cfg

let test_parser_aggregate_roundtrip () =
  let q = Oql_parser.parse "select avg(pa.age) from pa in Patients where pa.num >= 3" in
  (match q.Oql_ast.select with
  | Oql_ast.Aggregate (Oql_ast.Avg, Oql_ast.Path ("pa", "age")) -> ()
  | _ -> Alcotest.fail "aggregate shape");
  let printed = Format.asprintf "%a" Oql_ast.pp_query q in
  check_bool "pp/parse roundtrip" true (Oql_parser.parse printed = q)

let test_equality_predicate_uses_index () =
  let b = small_db () in
  let db = b.Tb_derby.Generator.db in
  (match
     Planner.plan db (Oql_parser.parse "select pa from pa in Patients where pa.mrn = 42")
   with
  | Plan.Selection { access = Plan.Index_scan { lo = Some 42; hi = Some 43; _ }; _ }
    ->
      ()
  | p -> Alcotest.failf "expected point index scan, got %a" Plan.pp p);
  let r = Planner.run db "select pa.name from pa in Patients where pa.mrn = 42" ~keep:true in
  check_int "point lookup" 1 (Query_result.count r);
  Query_result.dispose r

let test_gt_and_multi_predicates () =
  let b = small_db () in
  let db = b.Tb_derby.Generator.db in
  (* 20*5 = 100 patients; mrn in 0..99. *)
  let r =
    Planner.run db
      "select pa.name from pa in Patients where pa.mrn > 89 and pa.mrn <= 95"
      ~keep:true
  in
  check_int "window" 6 (Query_result.count r);
  Query_result.dispose r;
  (* Residual predicate on a non-indexed attribute. *)
  let r =
    Planner.run db
      "select pa.name from pa in Patients where pa.mrn < 50 and pa.sex = 'F'"
      ~keep:true
  in
  check_int "residual sex filter" 25 (Query_result.count r);
  Query_result.dispose r

let test_select_constant_and_nil () =
  let b = small_db () in
  let db = b.Tb_derby.Generator.db in
  let r = Planner.run db "select 7 from pa in Patients where pa.mrn < 3" ~keep:true in
  Alcotest.(check (list bool))
    "constant rows" [ true; true; true ]
    (List.map (fun v -> Value.equal v (Value.Int 7)) (Query_result.values r));
  Query_result.dispose r

(* A name that does not resolve is a planning error: [Plan.Unsupported]
   before any charge, on every algorithm, however wide the bounds.  The
   projection cases matter most: under narrow bounds no row reaches the
   projection, so only planning can catch them. *)
let test_name_errors_fail_at_planning () =
  let b = small_db () in
  let db = b.Tb_derby.Generator.db in
  let sim = Database.sim db in
  let counters () = Format.asprintf "%a" Tb_sim.Counters.pp sim.Tb_sim.Sim.counters in
  let fails name ?force_algo text =
    Database.cold_restart db;
    let before = counters () in
    let clock = Tb_sim.Clock.now_ms sim.Tb_sim.Sim.clock in
    (match Planner.run db ?force_algo text ~keep:false with
    | exception Plan.Unsupported _ -> ()
    | r ->
        Query_result.dispose r;
        Alcotest.failf "%s: expected Plan.Unsupported" name);
    Alcotest.(check string) (name ^ ": no charge") before (counters ());
    Alcotest.(check (float 0.0)) (name ^ ": clock unmoved") clock
      (Tb_sim.Clock.now_ms sim.Tb_sim.Sim.clock)
  in
  fails "unknown extent" "select x from x in Nowhere";
  fails "unknown variable" "select [p.name, q.age] from p in Providers, pa in p.clients";
  fails "unknown predicate attribute"
    "select pa.name from pa in Patients where pa.zzz < 10";
  fails "variable bound twice" "select p.name from p in Providers, p in p.clients";
  List.iter
    (fun (algo, bound) ->
      fails
        (Printf.sprintf "unknown projection attribute (%s, bound %d)"
           (Plan.algo_name algo) bound)
        ~force_algo:algo
        (Printf.sprintf
           "select [p.name, pa.zzz] from p in Providers, pa in p.clients where \
            pa.mrn < %d and p.upin < %d"
           bound bound))
    [ (Plan.NL, 10); (Plan.NL, 1000); (Plan.PHJ, 1000); (Plan.SMJ, 1000) ];
  check_bool "the optimizer path rejects it too" true
    (match Planner.optimize db "select pa.zzz from pa in Patients" with
    | exception Plan.Unsupported _ -> true
    | _ -> false)

(* --- schemas without an inverse reference --- *)

let forest_schema =
  Schema.make
    ~classes:
      [
        {
          Schema.cls_name = "Parent";
          attrs = [ ("pid", Schema.TInt); ("kids", Schema.TSet (Schema.TRef "Kid")) ];
        };
        { Schema.cls_name = "Kid"; attrs = [ ("kid_id", Schema.TInt) ] };
      ]
    ~roots:
      [
        ("ParentsExt", Schema.TSet (Schema.TRef "Parent"));
        ("KidsExt", Schema.TSet (Schema.TRef "Kid"));
      ]

let forest_db () =
  let sim = Tb_sim.Sim.create (Tb_sim.Cost_model.scaled 1000) in
  let db =
    Database.create sim ~schema:forest_schema ~server_pages:16 ~client_pages:64
      ~txn_mode:Tb_store.Transaction.Load_off ()
  in
  Database.bind_class db ~cls:"Parent" (Database.new_file db ~name:"parents");
  Database.bind_class db ~cls:"Kid" (Database.new_file db ~name:"kids");
  let kid_count = ref 0 in
  for pid = 0 to 9 do
    let kids =
      List.init 4 (fun _ ->
          let id = !kid_count in
          incr kid_count;
          Database.insert_object db ~cls:"Kid" (Value.Tuple [ ("kid_id", Value.Int id) ]))
    in
    ignore
      (Database.insert_object db ~cls:"Parent"
         (Value.Tuple
            [
              ("pid", Value.Int pid);
              ("kids", Value.Set (List.map (fun r -> Value.Ref r) kids));
            ]))
  done;
  db

let test_no_inverse_falls_back_to_nl () =
  let db = forest_db () in
  let q = Oql_parser.parse "select k from p in ParentsExt, k in p.kids" in
  (* Unforced (cost-based) planning must not pick an algorithm that needs
     the missing inverse. *)
  (match Planner.plan db q with
  | Plan.Hier_join { algo = Plan.NL; inv_attr = None; _ } -> ()
  | p -> Alcotest.failf "expected NL, got %a" Plan.pp p);
  let r = Exec.run db (Planner.lower (Planner.plan db q)) ~keep:true in
  check_int "all pairs" 40 (Query_result.count r);
  Query_result.dispose r;
  (* Forcing a child-to-parent algorithm raises Unsupported. *)
  check_bool "forced NOJOIN rejected" true
    (match
       Exec.run db (Planner.lower (Planner.plan ~force_algo:Plan.NOJOIN db q)) ~keep:false
     with
    | exception Plan.Unsupported _ -> true
    | r ->
        Query_result.dispose r;
        false)

(* --- spilled clients collections in joins --- *)

let test_joins_over_spilled_collections () =
  (* Fanout large enough that the clients sets live in the collection file;
     every algorithm must still agree. *)
  let cfg =
    {
      (Tb_derby.Generator.config ~scale:1000 `Wide
         Tb_derby.Generator.Class_clustered)
      with
      Tb_derby.Generator.n_providers = 4;
      fanout = 600;
    }
  in
  let b = Tb_derby.Generator.build ~cost:(Tb_sim.Cost_model.scaled 1000) cfg in
  let db = b.Tb_derby.Generator.db in
  (* Confirm the premise: clients really did spill. *)
  let _, pv = Database.read_object db b.Tb_derby.Generator.providers.(0) in
  (match Value.field pv "clients" with
  | Value.Big_set _ -> ()
  | _ -> Alcotest.fail "expected spilled clients");
  let q =
    "select count(pa) from p in Providers, pa in p.clients where pa.mrn < \
     1200 and p.upin < 3"
  in
  let counts =
    List.map
      (fun algo ->
        Database.cold_restart db;
        let r = Planner.run db q ~force_algo:algo ~keep:true in
        let n =
          match Query_result.values r with
          | [ Value.Int n ] -> n
          | _ -> Alcotest.fail "count shape"
        in
        Query_result.dispose r;
        n)
      [ Plan.NL; Plan.NOJOIN; Plan.PHJ; Plan.CHJ; Plan.PHHJ; Plan.CHHJ; Plan.SMJ ]
  in
  match counts with
  | c :: rest ->
      check_bool "positive" true (c > 0);
      List.iter (check_int "all algorithms agree over Big_sets" c) rest
  | [] -> Alcotest.fail "no counts"

let suite =
  [
    Alcotest.test_case "page: slot bounds" `Quick test_page_slot_bounds;
    Alcotest.test_case "cache: read your writes under pressure" `Quick
      test_cache_read_your_writes_under_pressure;
    Alcotest.test_case "big collection: chunk boundaries" `Quick
      test_big_collection_chunk_boundaries;
    Alcotest.test_case "btree: empty and degenerate ranges" `Quick
      test_btree_empty_and_degenerate_ranges;
    QCheck_alcotest.to_alcotest btree_mixed_ops_invariants;
    Alcotest.test_case "parser: aggregate roundtrip" `Quick
      test_parser_aggregate_roundtrip;
    Alcotest.test_case "planner: equality predicate uses the index" `Quick
      test_equality_predicate_uses_index;
    Alcotest.test_case "exec: windows and residual predicates" `Quick
      test_gt_and_multi_predicates;
    Alcotest.test_case "exec: constant projection" `Quick
      test_select_constant_and_nil;
    Alcotest.test_case "planner: unknown names fail before any charge" `Quick
      test_name_errors_fail_at_planning;
    Alcotest.test_case "no inverse: NL fallback, NOJOIN rejected" `Quick
      test_no_inverse_falls_back_to_nl;
    Alcotest.test_case "joins over spilled collections" `Quick
      test_joins_over_spilled_collections;
  ]
