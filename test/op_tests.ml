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

let small_built ?(fanout = 4) ?(n_providers = 25) ?(build_num_index = true) () =
  let scale = 1000 in
  let cfg =
    {
      (Generator.config ~scale `Deep Generator.Class_clustered) with
      Generator.n_providers;
      fanout;
      build_num_index;
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

(* The reference encoding of a spill record: the named tuple built as a
   value tree and encoded whole.  [Operators.spill] writes it field by
   field in place, and must produce the same bytes. *)
let reference_record ~names ~key ~self vals =
  Tb_store.Codec.encode
    (Value.Tuple
       (("@key", Value.Ref key)
       :: ("@self", Value.Ref self)
       :: List.mapi (fun i n -> (n, vals.(i))) names))

let test_spill_roundtrip () =
  let b = small_built () in
  let db = b.Generator.db in
  let arena = Database.arena db in
  let names = [ "age"; "name"; "misc" ] in
  let sp = Operators.new_spill db ~names ~buckets:2 in
  let key i = b.Generator.providers.(i mod Array.length b.Generator.providers) in
  let self i = b.Generator.patients.(i) in
  (* Every tag, nested tuples and sets included, and a record long
     enough to grow the reused buffer. *)
  let misc =
    [|
      Value.Nil;
      Value.Real 2.5;
      Value.Bool true;
      Value.Char 'x';
      Value.Ref (self 9);
      Value.Big_set (self 10);
      Value.Tuple [ ("a", Value.Int (-3)); ("b", Value.Set [ Value.Int 1; Value.String "s" ]) ];
      Value.List [ Value.Tuple []; Value.Set [] ];
      Value.String (String.make 300 'q');
    |]
  in
  let vals =
    Array.mapi
      (fun i m -> [| Value.Int (40 + i); Value.String (Printf.sprintf "pp%04d" i); m |])
      misc
  in
  Array.iteri
    (fun i v ->
      Operators.spill sp (i mod 2) ~key:(key i) (Stowed.make arena ~self:(self i) v))
    vals;
  (* An empty payload carries no names. *)
  let bare = Operators.new_spill db ~names:[] ~buckets:1 in
  Operators.spill bare 0 ~key:(key 1) (Stowed.make arena ~self:(self 1) [||]);
  for bucket = 0 to 1 do
    let expect =
      List.filter (fun i -> i mod 2 = bucket) (List.init (Array.length vals) Fun.id)
    in
    let bodies = ref [] and got = ref [] in
    Tb_storage.Heap_file.scan (Operators.spill_file sp bucket) (fun _ body ->
        bodies := body :: !bodies);
    Operators.iter_spilled sp bucket (fun k p ->
        got := (k, Stowed.self arena p, Stowed.values arena p 3) :: !got);
    check_int "records per bucket" (List.length expect) (List.length !bodies);
    List.iter2
      (fun i (body, (k, s, v)) ->
        check_bool
          (Printf.sprintf "record %d: bytes of the reference encoding" i)
          true
          (Bytes.equal body
             (reference_record ~names ~key:(key i) ~self:(self i) vals.(i)));
        check_bool (Printf.sprintf "record %d: key" i) true (Rid.equal k (key i));
        check_bool (Printf.sprintf "record %d: self" i) true (Rid.equal s (self i));
        check_bool (Printf.sprintf "record %d: values" i) true (v = vals.(i)))
      expect
      (List.combine (List.rev !bodies) (List.rev !got))
  done;
  let bodies = ref [] and got = ref [] in
  Tb_storage.Heap_file.scan (Operators.spill_file bare 0) (fun _ body ->
      bodies := body :: !bodies);
  Operators.iter_spilled bare 0 (fun k p ->
      got := (k, Stowed.self arena p, Stowed.values arena p 0) :: !got);
  Tb_storage.Arena.truncate arena 0;
  match (!bodies, !got) with
  | [ body ], [ (k, s, v) ] ->
      check_bool "bare record: bytes of the reference encoding" true
        (Bytes.equal body (reference_record ~names:[] ~key:(key 1) ~self:(self 1) [||]));
      check_bool "bare record: key" true (Rid.equal k (key 1));
      check_bool "bare record: self" true (Rid.equal s (self 1));
      check_bool "empty payload survives" true (v = [||])
  | _, other -> Alcotest.failf "expected 1 bare record, got %d" (List.length other)

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

(* --- spill files die with their join --- *)

let phhj_root db text n =
  Planner.lower
    (with_partitions
       (Planner.plan db (Oql_parser.parse text) ~force_algo:Plan.PHHJ)
       n)

let test_spill_files_released () =
  let b = small_built () in
  let db = b.Generator.db in
  Database.cold_restart db;
  let pages0 = Database.durable_pages db in
  for run = 1 to 3 do
    let r, global = Exec.run_explained db (phhj_root db (join_query 60 15) 4) ~keep:false in
    Query_result.dispose r;
    check_bool (Printf.sprintf "run %d spilled" run) true (global.Op.t_pages_written > 0);
    Database.cold_restart db;
    check_int (Printf.sprintf "durable pages after run %d and a restart" run) pages0
      (Database.durable_pages db)
  done;
  (* A join that raises after spilling: summing a string fails at its
     first result row, once the build side is on disk. *)
  (match
     Exec.run db
       (phhj_root db
          "select sum(p.name) from p in Providers, pa in p.clients where pa.mrn \
           < 60 and p.upin < 15"
          4)
       ~keep:false
   with
  | exception Invalid_argument _ -> ()
  | r ->
      Query_result.dispose r;
      Alcotest.fail "expected summing a string to raise");
  Database.cold_restart db;
  check_int "durable pages after a raising join" pages0 (Database.durable_pages db);
  (* With the log on, a spill's pages stay while the log holds touches of
     them: an abort truncates the files, a commit lets the next restart
     release them. *)
  Tb_store.Transaction.set_mode (Database.txn db) Tb_store.Transaction.Standard;
  let spill_then resolve =
    let h = Database.begin_txn db in
    let r = Exec.run db (phhj_root db (join_query 60 15) 4) ~keep:false in
    Query_result.dispose r;
    resolve h;
    Database.cold_restart db;
    Database.durable_pages db
  in
  check_int "abort: durable pages" pages0 (spill_then Database.abort_txn);
  check_int "commit: durable pages" pages0 (spill_then Database.commit_txn)

(* --- keep: a row that is only sized charges exactly as a built one --- *)

let take n l = List.filteri (fun i _ -> i < n) l

let frame_lines root =
  let acc = ref [] in
  Op.iter
    (fun node ->
      let fr = node.Op.frame in
      acc :=
        Printf.sprintf "%s in=%d out=%d h=%d pr=%d pw=%d ga=%d cmp=%d hash=%d sort=%d b=%d ms=%Lx"
          (Op.opcode node) fr.Op.rows_in fr.Op.rows_out fr.Op.handles fr.Op.pages_read
          fr.Op.pages_written fr.Op.get_atts fr.Op.cmps fr.Op.hash_ops fr.Op.sort_cmps
          fr.Op.bytes
          (Int64.bits_of_float fr.Op.clock.Op.ms)
        :: !acc)
    root;
  List.rev !acc

(* Everything a run charged and returned, with at most 16 sampled rows:
   a kept result's sample is all of its rows. *)
let run_summary sim r root =
  let c = sim.Sim.counters in
  String.concat "\n"
    ([
       Printf.sprintf "count=%d seen=%d size=%d" (Query_result.count r)
         (Query_result.rows_seen r) (Query_result.size_bytes r);
       Format.asprintf "sample=%a"
         (Format.pp_print_list Value.pp)
         (take 16 (Query_result.sample r));
       Format.asprintf "%a" Tb_sim.Counters.pp c;
       Printf.sprintf "now=%Lx work=%Lx peak=%d working=%d"
         (Int64.bits_of_float (Tb_sim.Clock.now_ms sim.Sim.clock))
         (Int64.bits_of_float (Tb_sim.Clock.work_ms sim.Sim.clock))
         sim.Sim.peak_working_bytes (Sim.working_bytes sim);
     ]
    @ frame_lines root)

let test_keep_equivalence () =
  let kept = (small_built ~fanout:8 ()).Generator.db in
  let sized = (small_built ~fanout:8 ()).Generator.db in
  let case name lower =
    let side db ~keep =
      Database.cold_restart db;
      let root = lower db in
      let r = Exec.run db root ~keep in
      let s = run_summary (Database.sim db) r root in
      let rows = Query_result.rows_seen r in
      Query_result.dispose r;
      (s, rows)
    in
    let a, rows = side kept ~keep:true in
    let b, _ = side sized ~keep:false in
    Alcotest.(check string) (name ^ ": keep:true and keep:false alike") a b;
    rows
  in
  let plan ?force_algo ?force_seq ?force_sorted ?partitions text db =
    let p = Planner.plan ?force_algo ?force_seq ?force_sorted db (Oql_parser.parse text) in
    Planner.lower (match partitions with Some n -> with_partitions p n | None -> p)
  in
  let sel = "where pa.mrn < 150" in
  List.iter
    (fun (what, select) ->
      let text = Printf.sprintf "select %s from pa in Patients %s" select sel in
      List.iter
        (fun (path, force_seq, force_sorted) ->
          let rows = case (what ^ "/" ^ path) (plan ?force_seq ?force_sorted text) in
          if String.equal path "seq" && not (String.starts_with ~prefix:"count" what)
          then check_bool (what ^ ": more rows than the sample") true (rows > 16))
        [ ("seq", Some true, None); ("index", None, Some false); ("sorted", None, Some true) ])
    [
      ("attribute", "pa.age");
      ("tuple", "[pa.mrn, pa.name, k: 3, who: pa]");
      ("identity", "pa");
      ("count", "count(pa)");
      ("sum", "sum(pa.age)");
      ("min", "min(pa.name)");
    ];
  let join = join_query 300 20 in
  let join_count =
    "select count(pa) from p in Providers, pa in p.clients where pa.mrn < 300 and \
     p.upin < 20"
  in
  List.iter
    (fun (algo, partitions) ->
      let name =
        Plan.algo_name algo
        ^ match partitions with Some n -> Printf.sprintf "/p%d" n | None -> ""
      in
      List.iter
        (fun (path, force_seq) ->
          let rows =
            case (name ^ "/" ^ path) (plan ~force_algo:algo ?force_seq ?partitions join)
          in
          check_bool (name ^ ": more rows than the sample") true (rows > 16);
          ignore (case (name ^ "/" ^ path ^ "/count")
                    (plan ~force_algo:algo ?force_seq ?partitions join_count)))
        [ ("seq", Some true); ("default", None) ])
    [
      (Plan.NL, None); (Plan.NOJOIN, None); (Plan.PHJ, None); (Plan.CHJ, None);
      (Plan.PHHJ, Some 1); (Plan.PHHJ, Some 4); (Plan.CHHJ, Some 1); (Plan.CHHJ, Some 4);
      (Plan.SMJ, None);
    ];
  (* Four shards: shard-local lanes and exchange destinations size their
     rows too. *)
  let sharded () =
    (Generator.build_sharded ~cost:(Tb_sim.Cost_model.scaled 1000) ~shards:4
       {
         (Generator.config ~scale:1000 `Deep Generator.Class_clustered) with
         Generator.n_providers = 25;
         fanout = 8;
       })
      .Generator.smap
  in
  let kept = sharded () and sized = sharded () in
  List.iter
    (fun (algo, text) ->
      let side smap ~keep =
        Tb_store.Shard_map.cold_restart smap;
        let r, root, _, _ =
          Planner.run_sharded_explained ~force_algo:algo ~keep smap text
        in
        let s = run_summary (Tb_store.Shard_map.sim smap) r root in
        Query_result.dispose r;
        s
      in
      Alcotest.(check string)
        ("S=4 " ^ Plan.algo_name algo ^ ": keep:true and keep:false alike")
        (side kept ~keep:true) (side sized ~keep:false))
    [ (Plan.NL, join); (Plan.PHJ, join); (Plan.CHJ, join); (Plan.PHJ, join_count) ]

(* --- claim/release leaks on mid-query exceptions --- *)

let test_sorted_rids_leak_on_raise () =
  let b = small_built () in
  let db = b.Generator.db in
  (* A sorted-Rid scan whose rows raise mid-stream: the Fetch's predicate
     compares an integer with a string, so the first emitted row raises
     after the whole run was gathered, claimed and sorted.  A cold restart
     afterwards releases the Handles the rows pinned, so any residue is the
     sort buffer's claim. *)
  let scan ?(sort = true) ~preds ~covering () =
    let index =
      Op.make
        (Op.Index_scan { cls = Derby.patient_cls; attr = "mrn"; lo = None; hi = Some 40 })
    in
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
                                 (if sort then Op.make (Op.Sort_rids { child = index })
                                  else index);
                               cls = Derby.patient_cls;
                               var = "pa";
                               preds;
                               covering;
                               mode = Op.Handle;
                             });
                      select = Oql_ast.Var "pa";
                    });
             aggregate = None;
           })
    in
    ignore (Op.attach_frames tree);
    tree
  in
  let raising =
    scan ~covering:false
      ~preds:[ { Plan.attr = "age"; cmp = Oql_ast.Eq; const = Value.String "x" } ]
      ()
  in
  let rows tree =
    let r = Exec.run db tree ~keep:true in
    let rids =
      List.map
        (function Value.Ref rid -> rid | _ -> Alcotest.fail "expected a reference")
        (Query_result.values r)
    in
    Query_result.dispose r;
    rids
  in
  Database.cold_restart db;
  let sim = Database.sim db in
  let baseline = Sim.working_bytes sim in
  let scratch = Database.rid_buf db in
  (match Exec.run db raising ~keep:false with
  | exception Invalid_argument _ -> ()
  | r ->
      Query_result.dispose r;
      Alcotest.fail "expected the row to raise");
  Database.cold_restart db;
  check_int "sort buffer released on raise" baseline (Sim.working_bytes sim);
  check_int "the Rid scratch is popped on raise" 0 (Tb_storage.Rid_buf.length scratch);
  (* The next run sorts the same Rids in the scratch the raised run grew. *)
  let grown = Tb_storage.Rid_buf.contents scratch in
  let rids = rows (scan ~covering:true ~preds:[] ()) in
  check_bool "the run has rows" true (List.length rids > 32);
  check_bool "the index's rows, in physical order" true
    (List.sort Rid.compare (rows (scan ~sort:false ~covering:true ~preds:[] ())) = rids);
  check_int "the Rid scratch is popped after a run" 0 (Tb_storage.Rid_buf.length scratch);
  check_bool "the next run reuses the scratch without growing it" true
    (Tb_storage.Rid_buf.contents scratch == grown)

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
  ignore (Op.attach_frames tree);
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

(* --- frames: only a tree lowered to run owns them --- *)

let test_shape_does_not_run () =
  let db = (small_built ()).Generator.db in
  let plan = Planner.plan db (Oql_parser.parse (join_query 60 15)) ~force_algo:Plan.PHJ in
  let root = Planner.shape plan in
  let counters () = Format.asprintf "%a" Tb_sim.Counters.pp (Database.sim db).Sim.counters in
  let before = counters () in
  (match Exec.run_explained db root ~keep:false with
  | exception Invalid_argument _ -> ()
  | r, _ ->
      Query_result.dispose r;
      Alcotest.fail "a tree without frames ran");
  Alcotest.(check string) "the refused run charged nothing" before (counters ());
  let root = Op.attach_frames root in
  let r, global = Exec.run_explained db root ~keep:false in
  Query_result.dispose r;
  check_bool "given its frames, it runs and reconciles" true (Op.reconciles ~global root)

(* --- a lowered tree is shape only: it runs on the database it is given --- *)

(* One cold run: the rows, every counter, the clock bits and the
   per-operator frames. *)
let run_capture db root =
  Database.cold_restart db;
  let r, _ = Exec.run_explained db root ~keep:true in
  let rows = List.map (Format.asprintf "%a" Value.pp) (Query_result.values r) in
  Query_result.dispose r;
  let frames = ref [] in
  Op.iter
    (fun n ->
      let f = n.Op.frame in
      frames :=
        Printf.sprintf "%s in=%d out=%d h=%d pr=%d pw=%d ga=%d cmp=%d hash=%d sort=%d b=%d %Lx"
          (Op.label n) f.Op.rows_in f.Op.rows_out f.Op.handles f.Op.pages_read
          f.Op.pages_written f.Op.get_atts f.Op.cmps f.Op.hash_ops f.Op.sort_cmps
          f.Op.bytes
          (Int64.bits_of_float f.Op.clock.Op.ms)
        :: !frames)
    root;
  let sim = Database.sim db in
  ( rows,
    Format.asprintf "%a" Tb_sim.Counters.pp sim.Sim.counters,
    Int64.bits_of_float (Sim.elapsed_s sim),
    List.rev !frames )

let test_tree_runs_on_given_db () =
  (* [a] plans and lowers; its twins [b] and [b'] run the same query
     sequence in lockstep, [b] on [a]'s trees and [b'] on its own. *)
  let a = (small_built ()).Generator.db in
  let b = (small_built ()).Generator.db in
  let b' = (small_built ()).Generator.db in
  let tree db ?force_algo ?force_sorted text =
    Planner.lower (Planner.plan db (Oql_parser.parse text) ?force_algo ?force_sorted)
  in
  let check_q name ?force_algo ?force_sorted text =
    let rows, counters, clock, frames =
      run_capture b (tree a ?force_algo ?force_sorted text)
    in
    let rows', counters', clock', frames' =
      run_capture b' (tree b' ?force_algo ?force_sorted text)
    in
    Alcotest.(check (list string)) (name ^ ": rows") rows' rows;
    Alcotest.(check string) (name ^ ": counters") counters' counters;
    Alcotest.(check int64) (name ^ ": clock bits") clock' clock;
    Alcotest.(check (list string)) (name ^ ": frames") frames' frames
  in
  let num = "select pa.age from pa in Patients where pa.num < 30" in
  check_q "selection/index" ~force_sorted:false num;
  check_q "selection/sorted" ~force_sorted:true
    "select pa.age from pa in Patients where pa.mrn < 40";
  check_q "PHJ/sorted" ~force_algo:Plan.PHJ ~force_sorted:true (join_query 60 15);
  check_q "NL/index" ~force_algo:Plan.NL ~force_sorted:false (join_query 60 15);
  (* A database without the num index refuses the tree by name. *)
  let plain = (small_built ~build_num_index:false ()).Generator.db in
  match Exec.run plain (tree a ~force_sorted:false num) ~keep:false with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "names the missing index"
        "Database.index_on: no index on Patient.num" msg
  | r ->
      Query_result.dispose r;
      Alcotest.fail "a tree ran on a database without its index"

(* --- the arena is popped on every way out of a stowing join ---

   One provider's name and one patient's age, half-way along their
   extents, are set to Nil, which no predicate can compare with a string
   or an int.  A predicate on the provider raises half-way through the
   parents (mid-build for PHJ, PHHJ and sort-merge, mid-probe for CHJ),
   one on the patient half-way through the children (the other way
   round).  Each must leave the arena and the claimed memory as it found
   them, and the next run of each algorithm must give the right rows. *)
let test_join_raise_pops_arena () =
  let b = small_built () in
  let db = b.Generator.db in
  let nil_attr rid attr =
    match snd (Database.read_object db rid) with
    | Value.Tuple fields ->
        Database.update_object db rid
          (Value.Tuple
             (List.map (fun (n, v) -> if n = attr then (n, Value.Nil) else (n, v)) fields))
    | _ -> Alcotest.fail "expected a tuple object"
  in
  let half a = a.(Array.length a / 2) in
  nil_attr (half b.Generator.providers) "name";
  nil_attr (half b.Generator.patients) "age";
  let join where =
    "select [p.upin, pa.mrn] from p in Providers, pa in p.clients where " ^ where
  in
  let on_parent = join "p.name < \"zzzz\"" and on_child = join "pa.age < 1000000" in
  let clean = join "pa.mrn < 1000000" in
  let arena = Database.arena db in
  let at_base () =
    Tb_storage.Arena.top arena = 0
    && Tb_storage.Arena.length (Tb_storage.Arena.entries arena) = 0
    && Tb_storage.Arena.length (Tb_storage.Arena.slots arena) = 0
  in
  let sim = Database.sim db in
  let baseline = Sim.working_bytes sim in
  let rows algo =
    Database.cold_restart db;
    let r = Planner.run db clean ~force_algo:algo ~keep:true in
    let v = List.sort compare (Query_result.values r) in
    Query_result.dispose r;
    v
  in
  let expect = rows Plan.NL in
  check_bool "the clean join has rows" true (List.length expect > 32);
  List.iter
    (fun algo ->
      let name = Plan.algo_name algo in
      List.iter
        (fun (side, text) ->
          Database.cold_restart db;
          (match Planner.run db text ~force_algo:algo ~keep:false with
          | exception Invalid_argument _ -> ()
          | r ->
              Query_result.dispose r;
              Alcotest.failf "%s, %s: expected the row to raise" name side);
          (* Resident Handles hold their claim until the restart. *)
          Database.cold_restart db;
          check_bool (Printf.sprintf "%s, %s: arena at its base" name side) true
            (at_base ());
          check_int
            (Printf.sprintf "%s, %s: claimed memory released" name side)
            baseline (Sim.working_bytes sim))
        [ ("parent raises", on_parent); ("child raises", on_child) ];
      check_bool (name ^ ": the next run's rows") true (rows algo = expect);
      check_bool (name ^ ": arena at its base after a run") true (at_base ()))
    [ Plan.PHJ; Plan.CHJ; Plan.PHHJ; Plan.SMJ ]

let suite =
  [
    Alcotest.test_case "fetch: covering shortcut skips handles" `Quick
      test_covering_no_handles;
    Alcotest.test_case "spill records round-trip" `Quick test_spill_roundtrip;
    Alcotest.test_case "hybrid: bucket 0 never touches disk" `Quick
      test_hybrid_bucket0_in_memory;
    Alcotest.test_case "hybrid: spill files are released at the next restart" `Quick
      test_spill_files_released;
    Alcotest.test_case "keep: sized rows charge as built rows, every algorithm and path"
      `Quick test_keep_equivalence;
    Alcotest.test_case "sorted rids: no leak when a row raises" `Quick
      test_sorted_rids_leak_on_raise;
    Alcotest.test_case "merge: no leak when one side fails" `Quick
      test_merge_leak_on_raise;
    Alcotest.test_case "stowing joins: the arena is popped when a row raises" `Quick
      test_join_raise_pops_arena;
    Alcotest.test_case "explain frames reconcile with global counters" `Quick
      test_reconciliation;
    Alcotest.test_case "frames: a shape-only tree refuses to run" `Quick
      test_shape_does_not_run;
    Alcotest.test_case "a lowered tree runs on the database it is given" `Quick
      test_tree_runs_on_given_db;
  ]
