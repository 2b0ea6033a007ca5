(* Per-operator tests: the covering-Fetch shortcut, spill-record round
   trips, the Spill_partition bucket-0 memory guarantee, claim/release
   leaks on mid-query exceptions, and the explain invariance — every
   operator frame must reconcile exactly against the global counters. *)

open Tb_query
module Database = Tb_store.Database
module Value = Tb_store.Value
module Rid = Tb_storage.Rid
module Sim = Tb_sim.Sim
module Generator = Tb_derby.Generator
module Derby = Tb_derby.Derby

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_built ?(fanout = 4) ?(n_providers = 25) () =
  let scale = 1000 in
  let cfg =
    {
      (Generator.config ~scale `Deep Generator.Class_clustered) with
      Generator.n_providers;
      fanout;
    }
  in
  Generator.build ~cost:(Tb_sim.Cost_model.scaled scale) cfg

let join_query k1 k2 =
  Printf.sprintf
    "select [p.name, pa.age] from p in Providers, pa in p.clients where \
     pa.mrn < %d and p.upin < %d"
    k1 k2

(* --- Fetch: the covering shortcut --- *)

let test_covering_no_handles () =
  let b = small_built () in
  let db = b.Generator.db in
  Database.cold_restart db;
  (* Identity-only selection with no predicates: the plan lowers to a
     covering Fetch and the whole run acquires zero Handles. *)
  let r, root, global = Planner.run_explained db "select pa from pa in Patients" ~keep:false in
  check_int "row per patient" (Array.length b.Generator.patients)
    (Query_result.count r);
  Query_result.dispose r;
  check_int "no handles anywhere" 0 global.Op.t_handles;
  check_int "no attribute reads" 0 global.Op.t_get_atts;
  let saw_covering = ref false in
  Op.iter
    (fun node ->
      match node.Op.kind with
      | Op.Fetch { covering; _ } -> if covering then saw_covering := true
      | _ -> ())
    root;
  check_bool "plan used the covering shortcut" true !saw_covering;
  (* A predicate forces Handles again. *)
  Database.cold_restart db;
  let r, _, global =
    Planner.run_explained db "select pa from pa in Patients where pa.age < 200"
      ~force_seq:true ~keep:false
  in
  Query_result.dispose r;
  check_bool "predicates force handles" true (global.Op.t_handles > 0)

(* --- spill records: payload round-trip through a heap file --- *)

let test_spill_roundtrip () =
  let b = small_built () in
  let db = b.Generator.db in
  let file = (Operators.new_spill_files db 1).(0) in
  let key = b.Generator.providers.(3) in
  let payload =
    {
      Op.self = b.Generator.patients.(7);
      vals = [| Value.Int 42; Value.String "pp0007" |];
    }
  in
  let names = [ "age"; "name" ] in
  Operators.spill file ~names ~key payload;
  Operators.spill file ~names:[] ~key:b.Generator.providers.(1)
    { Op.self = b.Generator.patients.(1); vals = [||] };
  let got = ref [] and bodies = ref [] in
  Tb_storage.Heap_file.scan file (fun _ body ->
      bodies := body :: !bodies;
      got := Operators.unspill_record body :: !got);
  (* The record is the named tuple, byte for byte: the names come from
     the operator, not the payload. *)
  check_bool "record encodes the named tuple" true
    (List.nth (List.rev !bodies) 0
    = Tb_store.Codec.encode
        (Value.Tuple
           [
             ("@key", Value.Ref key);
             ("@self", Value.Ref payload.Op.self);
             ("age", Value.Int 42);
             ("name", Value.String "pp0007");
           ]));
  match List.rev !got with
  | [ (k1, p1); (k2, p2) ] ->
      check_bool "key 1" true (Rid.equal k1 key);
      check_bool "self 1" true (Rid.equal p1.Op.self payload.Op.self);
      check_bool "values survive" true (p1.Op.vals = payload.Op.vals);
      check_bool "key 2" true (Rid.equal k2 b.Generator.providers.(1));
      check_bool "empty payload survives" true (p2.Op.vals = [||]);
  | other -> Alcotest.failf "expected 2 records, got %d" (List.length other)

(* --- Spill_partition: bucket 0 never touches disk --- *)

let with_partitions plan n =
  match plan with
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
        partitions = _;
        select;
        aggregate;
      } ->
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
          partitions = n;
          select;
          aggregate;
        }
  | Plan.Selection _ -> Alcotest.fail "expected a join plan"

let spill_frames root =
  let acc = ref [] in
  Op.iter
    (fun node ->
      match node.Op.kind with
      | Op.Spill_partition _ -> acc := node.Op.frame :: !acc
      | _ -> ())
    root;
  !acc

let test_hybrid_bucket0_in_memory () =
  let b = small_built () in
  let db = b.Generator.db in
  let q = Oql_parser.parse (join_query 60 15) in
  let hybrid n =
    let plan = with_partitions (Planner.plan db q ~force_algo:Plan.PHHJ) n in
    Database.cold_restart db;
    let r, global = Exec.run_explained db (Planner.lower plan) ~keep:false in
    let count = Query_result.count r in
    Query_result.dispose r;
    (count, global)
  in
  let baseline, g1 = hybrid 1 in
  (* partitions = 1: everything is bucket 0, nothing may be written. *)
  check_int "bucket 0 stays in memory" 0 g1.Op.t_pages_written;
  (* partitions = 4: the other buckets spill through temp heap files. *)
  let plan4 = with_partitions (Planner.plan db q ~force_algo:Plan.PHHJ) 4 in
  let root4 = Planner.lower plan4 in
  Database.cold_restart db;
  let r, global = Exec.run_explained db root4 ~keep:false in
  check_int "same result when spilling" baseline (Query_result.count r);
  Query_result.dispose r;
  check_bool "spilled buckets hit the disk" true (global.Op.t_pages_written > 0);
  let spilled =
    List.fold_left
      (fun acc fr -> acc + fr.Op.pages_written)
      0 (spill_frames root4)
  in
  check_bool "writes attributed to Spill_partition frames" true (spilled > 0)

(* --- claim/release leaks on mid-query exceptions --- *)

let test_sorted_rids_leak_on_raise () =
  let b = small_built () in
  let db = b.Generator.db in
  let index =
    match Database.find_index db ~cls:Derby.patient_cls ~attr:"mrn" with
    | Some ix -> ix
    | None -> Alcotest.fail "mrn index missing"
  in
  (* A sorted-Rid scan feeding a projection that raises mid-stream: the
     covering Fetch keeps Handles out of the picture, so any residue is
     the sort buffer's claim. *)
  let tree =
    Op.make
      (Op.Materialize
         {
           child =
             Op.make
               (Op.Project
                  {
                    child =
                      Op.make
                        (Op.Fetch
                           {
                             child =
                               Op.make
                                 (Op.Sort_rids
                                    {
                                      child =
                                        Op.make
                                          (Op.Index_scan
                                             { index; lo = None; hi = Some 40 });
                                    });
                             cls = Derby.patient_cls;
                             var = "pa";
                             preds = [];
                             covering = true;
                             mode = Op.Handle;
                             batch = 256;
                           });
                    select = Oql_ast.Path ("pa", "age");
                  });
           aggregate = None;
         })
  in
  Database.cold_restart db;
  let sim = Database.sim db in
  let baseline = Sim.working_bytes sim in
  (match Exec.run db tree ~keep:false with
  | exception Invalid_argument _ -> ()
  | r ->
      Query_result.dispose r;
      Alcotest.fail "expected the projection to raise");
  check_int "sort buffer released on raise" baseline (Sim.working_bytes sim)

let test_merge_leak_on_raise () =
  let b = small_built () in
  let db = b.Generator.db in
  let fetch cls var =
    Op.make
      (Op.Fetch
         {
           child = Op.make (Op.Seq_scan { cls });
           cls;
           var;
           preds = [];
           covering = false;
           mode = Op.Handle;
           batch = 256;
         })
  in
  (* The left run is gathered, claimed and sorted; the right side then
     fails at operator-compile time (unknown inverse attribute).  The
     interpreter must release the left run's claim on the way out. *)
  let tree =
    Op.make
      (Op.Materialize
         {
           child =
             Op.make
               (Op.Project
                  {
                    child =
                      Op.make
                        (Op.Merge
                           {
                             left =
                               Op.make
                                 (Op.Sort
                                    {
                                      child =
                                        Op.make
                                          (Op.Harvest
                                             {
                                               child =
                                                 fetch Derby.provider_cls "p";
                                               key = Op.K_self;
                                               cls = Derby.provider_cls;
                                               attrs = [ "name" ];
                                               mode = Op.Handle;
                                             });
                                    });
                             right =
                               Op.make
                                 (Op.Sort
                                    {
                                      child =
                                        Op.make
                                          (Op.Harvest
                                             {
                                               child =
                                                 fetch Derby.patient_cls "pa";
                                               key = Op.K_inverse "nonexistent";
                                               cls = Derby.patient_cls;
                                               attrs = [];
                                               mode = Op.Handle;
                                             });
                                    });
                             left_var = "p";
                             right_var = "pa";
                           });
                    select = Oql_ast.Var "p";
                  });
           aggregate = None;
         })
  in
  Database.cold_restart db;
  let sim = Database.sim db in
  let failing_run () =
    match Exec.run db tree ~keep:false with
    | exception Invalid_argument _ -> ()
    | r ->
        Query_result.dispose r;
        Alcotest.fail "expected the right side to raise"
  in
  (* Handles linger as zombies after a first run, so leak-detect by
     fixpoint: a second identical failure must not grow the working set. *)
  failing_run ();
  let after_first = Sim.working_bytes sim in
  failing_run ();
  check_int "no claim residue per failing run" after_first
    (Sim.working_bytes sim)

(* --- explain invariance: frames always reconcile with the counters --- *)

let test_reconciliation () =
  let b = small_built () in
  let db = b.Generator.db in
  let check_q name ?force_algo ?force_seq ?force_sorted q =
    Database.cold_restart db;
    let r, root, global =
      Planner.run_explained db q ?force_algo ?force_seq ?force_sorted
        ~keep:false
    in
    Query_result.dispose r;
    check_bool (name ^ " reconciles") true (Op.reconciles ~global root)
  in
  (* Figure 8: the three selection access paths. *)
  let sel = "select pa.age from pa in Patients where pa.mrn < 40" in
  check_q "selection/seq" ~force_seq:true sel;
  check_q "selection/index" ~force_sorted:false sel;
  check_q "selection/sorted" ~force_sorted:true sel;
  check_q "selection/aggregate" "select count(pa) from pa in Patients";
  (* The join algorithms over the paper's query shape. *)
  let join = join_query 60 15 in
  List.iter
    (fun algo ->
      check_q (Plan.algo_name algo) ~force_algo:algo join)
    [ Plan.NL; Plan.NOJOIN; Plan.PHJ; Plan.CHJ; Plan.PHHJ; Plan.CHHJ; Plan.SMJ ]

let suite =
  [
    Alcotest.test_case "fetch: covering shortcut skips handles" `Quick
      test_covering_no_handles;
    Alcotest.test_case "spill records round-trip" `Quick test_spill_roundtrip;
    Alcotest.test_case "hybrid: bucket 0 never touches disk" `Quick
      test_hybrid_bucket0_in_memory;
    Alcotest.test_case "sorted rids: no leak when a row raises" `Quick
      test_sorted_rids_leak_on_raise;
    Alcotest.test_case "merge: no leak when one side fails" `Quick
      test_merge_leak_on_raise;
    Alcotest.test_case "explain frames reconcile with global counters" `Quick
      test_reconciliation;
  ]
