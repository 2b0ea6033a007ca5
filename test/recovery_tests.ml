(* Tests for the recovery subsystem: the WAL, abort/rollback, deterministic
   fault injection, torn-write detection, and the seeded crash-point sweep
   that proves every crash recovers to the last committed state.

   The sweep strides through the crash points at tier-1 scale; set
   TREEBENCH_RECOVERY_FULL=1 to crash at every single durable write. *)

open Tb_store
module Fault = Tb_storage.Fault
module Counters = Tb_sim.Counters

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fresh_sim () = Tb_sim.Sim.create (Tb_sim.Cost_model.scaled 100)

let schema () =
  Schema.make
    ~classes:
      [
        {
          Schema.cls_name = "Patient";
          attrs =
            [
              ("name", Schema.TString);
              ("mrn", Schema.TInt);
              ("age", Schema.TInt);
            ];
        };
      ]
    ~roots:[ ("Patients", Schema.TSet (Schema.TRef "Patient")) ]

let patient i =
  Value.Tuple
    [
      ("name", Value.String (Printf.sprintf "p%04d" i));
      ("mrn", Value.Int i);
      ("age", Value.Int (20 + (i mod 60)));
    ]

(* Small pools on purpose: mid-transaction evictions steal uncommitted dirty
   pages to disk, so abort and crash recovery have real damage to undo. *)
let mk_db ?(uncommitted_limit = 50_000) () =
  let sim = fresh_sim () in
  Database.create sim ~schema:(schema ()) ~server_pages:16 ~client_pages:32
    ~txn_mode:Transaction.Standard ~uncommitted_limit ()

let bind_patients db =
  let f = Database.new_file db ~name:"patients" in
  Database.bind_class db ~cls:"Patient" f

let insert_patient db i =
  Database.insert_object db ~cls:"Patient" ~indexed:true (patient i)

(* --- the Load_off log-tail leak (regression) --- *)

let test_load_off_commit_drops_log_tail () =
  let sim = fresh_sim () in
  let disk = Tb_storage.Disk.create sim in
  let stack =
    Tb_storage.Cache_stack.create sim disk ~server_pages:8 ~client_pages:8
  in
  let txn = Transaction.create sim Transaction.Standard ~uncommitted_limit:1000 in
  Transaction.on_write txn ~bytes:100;
  check_bool "log tail pending" true (Transaction.pending_log_bytes txn > 0);
  (* The bug: switching to transaction-off mid-transaction and committing
     used to carry the standard-mode log tail into the next transaction,
     which then paid a disk write for bytes that were never logged. *)
  Transaction.set_mode txn Transaction.Load_off;
  Transaction.commit txn stack;
  check_int "tail dropped at transaction-off commit" 0
    (Transaction.pending_log_bytes txn);
  Transaction.set_mode txn Transaction.Standard;
  let dw = sim.Tb_sim.Sim.counters.Counters.disk_writes in
  Transaction.commit txn stack;
  check_int "no leaked log charge on the next commit" dw
    sim.Tb_sim.Sim.counters.Counters.disk_writes

(* --- abort edges --- *)

let test_abort_zero_writes () =
  let db = mk_db () in
  bind_patients db;
  Database.commit db;
  let fp = Database.durable_fingerprint db in
  let seq = Database.commit_seq db in
  check_int "empty rollback restores nothing" 0 (Database.rollback db);
  check_string "fingerprint unchanged" fp (Database.durable_fingerprint db);
  check_int "commit_seq unchanged" seq (Database.commit_seq db)

let test_abort_restores_state () =
  let db = mk_db () in
  bind_patients db;
  for i = 0 to 199 do
    ignore (insert_patient db i)
  done;
  Database.commit db;
  let fp = Database.durable_fingerprint db in
  let card = Database.cardinality db ~cls:"Patient" in
  (* Enough inserts to overflow both cache tiers: uncommitted pages reach
     the disk mid-transaction and must be rolled back from before-images. *)
  check_bool "aborted" true
    (match
       Database.with_txn db (fun db ->
           for i = 1_000 to 3_999 do
             ignore (insert_patient db i)
           done;
           raise Exit)
     with
    | exception Exit -> true
    | _ -> false);
  check_string "durable state restored" fp (Database.durable_fingerprint db);
  check_int "cardinality rewound" card (Database.cardinality db ~cls:"Patient");
  check_bool "stolen pages were undone" true
    ((Database.sim db).Tb_sim.Sim.counters.Counters.undo_pages > 0);
  (* The store stays usable after rollback. *)
  Database.with_txn db (fun db -> ignore (insert_patient db 5_000));
  check_int "post-rollback insert lands" (card + 1)
    (Database.cardinality db ~cls:"Patient")

let test_abort_after_out_of_memory () =
  let db = mk_db ~uncommitted_limit:500 () in
  bind_patients db;
  for i = 0 to 99 do
    ignore (insert_patient db i)
  done;
  Database.commit db;
  let fp = Database.durable_fingerprint db in
  check_bool "out of memory propagates" true
    (match
       Database.with_txn db (fun db ->
           for i = 1_000 to 2_999 do
             ignore (insert_patient db i)
           done)
     with
    | exception Transaction.Out_of_memory -> true
    | _ -> false);
  check_string "rolled back to last commit" fp (Database.durable_fingerprint db)

(* A loser that stole only some of the pages it touched: the log holds
   before-images for exactly those, and rollback — or crash recovery —
   restores exactly the stolen pages whose image diverged, one undo charge
   each.  The oracle is every page's committed image, taken before the
   loser ran. *)
let test_partly_stolen_loser () =
  let module Disk = Tb_storage.Disk in
  let loser () =
    let db = mk_db () in
    bind_patients db;
    for i = 0 to 5_999 do
      ignore (insert_patient db i)
    done;
    Database.commit db;
    let disk = Tb_storage.Cache_stack.disk (Database.stack db) in
    let committed =
      List.concat_map
        (fun file ->
          List.init (Disk.page_count disk file) (fun index ->
              let pid = Tb_storage.Page_id.make ~file ~index in
              let image = Bytes.create (Disk.page_size disk) in
              ignore (Disk.copy_image disk pid image : int);
              (pid, image)))
        (List.init (Disk.file_count disk) Fun.id)
    in
    let rids = ref [] in
    Database.scan_extent db ~cls:"Patient" (fun rid -> rids := rid :: !rids);
    List.iteri
      (fun i rid ->
        if i mod 3 = 0 then
          let _, v = Database.read_object db rid in
          Database.update_object db rid (Value.set_field v "age" (Value.Int 99)))
      !rids;
    let wal = Transaction.wal (Database.txn db) in
    let touched = Wal.touched_pages wal and stolen = Wal.stolen_pages wal in
    check_bool "some touched pages were stolen" true (stolen > 0);
    check_bool "some were not" true (stolen < touched);
    let diverged =
      List.length
        (List.filter
           (fun (pid, image) -> not (Disk.image_equal disk pid image))
           committed)
    in
    check_bool "stolen pages diverged" true (diverged > 0 && diverged <= stolen);
    let undo0 = (Database.sim db).Tb_sim.Sim.counters.Counters.undo_pages in
    let check_undone what undone =
      check_int (what ^ ": restores exactly the diverged pages") diverged undone;
      check_int (what ^ ": one undo charge each") diverged
        ((Database.sim db).Tb_sim.Sim.counters.Counters.undo_pages - undo0);
      List.iter
        (fun (pid, image) ->
          check_bool (what ^ ": committed image back") true
            (Disk.image_equal disk pid image))
        committed
    in
    (db, check_undone)
  in
  let db, check_undone = loser () in
  check_undone "rollback" (Database.rollback db);
  let db, check_undone = loser () in
  let r = Database.crash_and_recover db in
  check_bool "crash: a loser" true (r.Database.outcome = `Loser);
  check_undone "crash" r.Database.undone

let test_double_resolve_raises () =
  let db = mk_db () in
  bind_patients db;
  Database.commit db;
  let invalid f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  let h = Database.begin_txn db in
  Database.commit_txn h;
  check_bool "commit after commit raises" true (invalid (fun () ->
      Database.commit_txn h));
  check_bool "abort after commit raises" true (invalid (fun () ->
      Database.abort_txn h));
  let h2 = Database.begin_txn db in
  Database.abort_txn h2;
  check_bool "abort after abort raises" true (invalid (fun () ->
      Database.abort_txn h2));
  check_bool "commit after abort raises" true (invalid (fun () ->
      Database.commit_txn h2))

(* --- the crash workload and its oracle --- *)

(* A miniature Derby life cycle in four transactions: bulk creation, a
   post-load index build (the Section 3.2 header-rewrite catastrophe),
   index-maintaining updates with forced relocations, then deletes mixed
   with fresh inserts. *)
let workload db =
  Database.with_txn db (fun db ->
      for i = 0 to 599 do
        ignore (insert_patient db i)
      done);
  Database.with_txn db (fun db ->
      ignore (Database.create_index db ~name:"mrn" ~cls:"Patient" ~attr:"mrn"));
  Database.with_txn db (fun db ->
      let rids = ref [] in
      Database.scan_extent db ~cls:"Patient" (fun rid -> rids := rid :: !rids);
      List.iteri
        (fun i rid ->
          if i mod 7 = 0 then begin
            let _, v = Database.read_object db rid in
            let v = Value.set_field v "mrn" (Value.Int (100_000 + i)) in
            let v = Value.set_field v "name" (Value.String (String.make 40 'x')) in
            Database.update_object db rid v
          end)
        (List.rev !rids));
  Database.with_txn db (fun db ->
      let rids = ref [] in
      Database.scan_extent db ~cls:"Patient" (fun rid -> rids := rid :: !rids);
      List.iteri
        (fun i rid -> if i mod 11 = 0 then Database.delete_object db rid)
        (List.rev !rids);
      for i = 600 to 649 do
        ignore (insert_patient db i)
      done)

(* Run the workload under an armed fault layer, recording the durable
   fingerprint after every commit: F[seq] is the oracle a run crashed after
   [seq] commits must recover to.  [crash_at = 0] never crashes (the
   reference run — its fault layer still counts the durable writes, which
   is how the sweep learns its crash points). *)
let run ?(crash_at = 0) ~torn () =
  let db = mk_db () in
  let digests = Hashtbl.create 16 in
  Database.set_commit_hook db
    (Some (fun ~seq -> Hashtbl.replace digests seq (Database.durable_fingerprint db)));
  let f = Fault.create ~seed:7 in
  Database.set_fault db (Some f);
  if crash_at > 0 then Fault.schedule_crash f ~at_write:crash_at ~torn;
  (* F[0]: the creation-time checkpoint a crash before the first commit
     recovers to. *)
  Hashtbl.replace digests 0 (Database.durable_fingerprint db);
  match
    bind_patients db;
    Database.commit db;
    workload db
  with
  | () -> `Completed (db, digests, Fault.writes_seen f)
  | exception Fault.Crash -> `Crashed (db, digests)

let recover_and_check ~point db ref_digests =
  let r = Database.crash_and_recover db in
  let seq = Database.commit_seq db in
  let expect =
    match Hashtbl.find_opt ref_digests seq with
    | Some fp -> fp
    | None ->
        Alcotest.failf "crash point %d: no reference digest for seq %d" point
          seq
  in
  check_string
    (Printf.sprintf "crash point %d recovers to commit %d" point seq)
    expect
    (Database.durable_fingerprint db);
  r

(* --- torn-write detection --- *)

let test_torn_write_detected () =
  (* The last durable write of the run happens during the final commit's
     page flush: tearing it leaves a half-written data page under the full
     image's checksum, a durable commit record, and a winner to replay. *)
  let ref_digests, total =
    match run ~torn:false () with
    | `Completed (_, d, w) -> (d, w)
    | `Crashed _ -> Alcotest.fail "reference run crashed"
  in
  match run ~crash_at:total ~torn:true () with
  | `Completed _ -> Alcotest.fail "scheduled crash did not fire"
  | `Crashed (db, _) ->
      let r = recover_and_check ~point:total db ref_digests in
      check_bool "checksum caught the torn page" true (r.Database.torn_pages > 0);
      check_bool "winner replayed" true (r.Database.outcome = `Winner);
      check_int "redo counter matches" r.Database.redone
        (Database.sim db).Tb_sim.Sim.counters.Counters.redo_pages

(* --- transient read faults --- *)

let test_read_retries_charged () =
  let scan_with fault =
    let db = mk_db () in
    bind_patients db;
    for i = 0 to 499 do
      ignore (insert_patient db i)
    done;
    Database.commit db;
    (match fault with
    | None -> ()
    | Some permille ->
        let f = Fault.create ~seed:11 in
        Fault.set_read_faults f ~permille ~max_retries:3;
        Database.set_fault db (Some f));
    Database.cold_restart db;
    Tb_sim.Sim.reset (Database.sim db);
    let n = ref 0 in
    Database.scan_extent db ~cls:"Patient" (fun _ -> incr n);
    let sim = Database.sim db in
    (!n, sim.Tb_sim.Sim.counters.Counters.read_retries, Tb_sim.Sim.elapsed_s sim)
  in
  let rows, retries, elapsed = scan_with (Some 300) in
  let rows0, retries0, elapsed0 = scan_with None in
  check_int "same result with and without faults" rows0 rows;
  check_int "no retries without faults" 0 retries0;
  check_bool "retries happened" true (retries > 0);
  check_bool "backoff charged to the clock" true (elapsed > elapsed0)

(* --- the seeded crash-point sweep --- *)

let test_crash_sweep () =
  let ref_digests, total =
    match run ~torn:false () with
    | `Completed (_, d, w) -> (d, w)
    | `Crashed _ -> Alcotest.fail "reference run crashed"
  in
  check_bool
    (Printf.sprintf "workload yields >= 50 crash points (got %d)" total)
    true (total >= 50);
  let full = Sys.getenv_opt "TREEBENCH_RECOVERY_FULL" <> None in
  let stride = if full then 1 else max 1 (total / 60) in
  let points = ref 0 in
  let winners = ref 0 and losers = ref 0 and torn_seen = ref 0 in
  let k = ref 1 in
  while !k <= total do
    (* Alternate clean and torn crashes across the sweep. *)
    let torn = !k mod 2 = 1 in
    (match run ~crash_at:!k ~torn () with
    | `Completed _ -> Alcotest.failf "crash point %d did not fire" !k
    | `Crashed (db, _) ->
        incr points;
        let r = recover_and_check ~point:!k db ref_digests in
        (match r.Database.outcome with
        | `Winner -> incr winners
        | `Loser -> incr losers);
        torn_seen := !torn_seen + r.Database.torn_pages;
        (* Every few points: the recovered store accepts new transactions. *)
        if !k mod (7 * stride) = 1 then
          Database.with_txn db (fun db -> ignore (insert_patient db 9_000)));
    k := !k + stride
  done;
  check_bool
    (Printf.sprintf "swept >= 50 crash points (got %d)" !points)
    true (!points >= 50);
  check_bool "both winners and losers recovered" true
    (!winners > 0 && !losers > 0);
  check_bool "torn writes exercised in the sweep" true (!torn_seen > 0)

(* --- rollback property: random update, commit and abort sequences --- *)

module Derby = Tb_derby.Derby
module Generator = Tb_derby.Generator
module Rid = Tb_storage.Rid
module Rid_map = Map.Make (struct
  type t = Rid.t

  let compare = Rid.compare
end)

type rb_op =
  | Swap of int * int  (** swap the indexed nums of two live patients *)
  | Age of int * int  (** set an unindexed attribute *)
  | Add of int  (** insert a patient under this num (duplicates allowed) *)
  | Remove of int
  | Commit
  | Abort

let pp_rb_op = function
  | Swap (i, j) -> Printf.sprintf "swap %d %d" i j
  | Age (i, a) -> Printf.sprintf "age %d %d" i a
  | Add k -> Printf.sprintf "add %d" k
  | Remove i -> Printf.sprintf "remove %d" i
  | Commit -> "commit"
  | Abort -> "abort"

let rb_ops =
  let open QCheck.Gen in
  let ix = int_bound 10_000 in
  list_size (int_range 20 120)
    (frequency
       [
         (3, map2 (fun i j -> Swap (i, j)) ix ix);
         (2, map2 (fun i a -> Age (i, a)) ix (int_bound 99));
         (3, map (fun k -> Add k) (int_bound 700));
         (2, map (fun i -> Remove i) ix);
         (1, return Commit);
         (1, return Abort);
       ])

let field name v =
  match v with
  | Value.Tuple fields -> (
      match List.assoc_opt name fields with
      | Some (Value.Int n) -> n
      | _ -> failwith ("patient without int field " ^ name))
  | _ -> failwith "patient is not a tuple"

let with_field name x v =
  match v with
  | Value.Tuple fields ->
      Value.Tuple (List.map (fun (n, y) -> if n = name then (n, Value.Int x) else (n, y)) fields)
  | _ -> failwith "patient is not a tuple"

(* A small indexed Derby database (600 patients, num index bulk-built) with
   pools of a dozen pages, so transactions steal dirty pages to disk and
   every abort has both stolen and merely dirtied pages to put right. *)
let rollback_prop =
  QCheck.Test.make ~count:12
    ~name:"rollback: index, range scans and objects follow committed state"
    (QCheck.make rb_ops ~print:(fun l -> String.concat "; " (List.map pp_rb_op l)))
    (fun ops ->
      let cfg = Generator.config ~scale:5000 `Deep Generator.Class_clustered in
      let b =
        Generator.build ~cost:(Tb_sim.Cost_model.scaled 5000)
          {
            cfg with
            Generator.txn_mode = Transaction.Standard;
            server_pages = 4;
            client_pages = 8;
          }
      in
      let db = b.Generator.db in
      let tree =
        match b.Generator.num_index with
        | Some ix -> ix.Index_def.tree
        | None -> failwith "no num index"
      in
      (* rid -> (num, age) *)
      let read rid = snd (Database.read_object db rid) in
      let model =
        ref
          (Array.fold_left
             (fun m rid ->
               let v = read rid in
               Rid_map.add rid (field "num" v, field "age" v) m)
             Rid_map.empty b.Generator.patients)
      in
      let committed = ref !model in
      let h = ref (Database.begin_txn db) in
      let nth i =
        let live = Rid_map.cardinal !model in
        let k = i mod live in
        fst (List.nth (Rid_map.bindings !model) k)
      in
      let update rid ~num ~age =
        Database.update_object db rid
          (with_field "age" age (with_field "num" num (read rid)));
        model := Rid_map.add rid (num, age) !model
      in
      let fail step fmt =
        Printf.ksprintf (fun s -> QCheck.Test.fail_reportf "step %d: %s" step s) fmt
      in
      let check step =
        Btree.check_invariants tree;
        let entries =
          List.sort compare
            (List.map (fun (rid, (num, _)) -> (num, rid)) (Rid_map.bindings !model))
        in
        if Btree.entry_count tree <> List.length entries then
          fail step "entry_count %d, model %d" (Btree.entry_count tree)
            (List.length entries);
        let lo = 7 * step mod 700 in
        let hi = lo + 60 in
        let scanned = ref [] in
        Btree.range tree ~lo ~hi (fun k rid -> scanned := (k, rid) :: !scanned);
        if List.rev !scanned <> List.filter (fun (k, _) -> k >= lo && k < hi) entries
        then fail step "range [%d, %d) disagrees" lo hi;
        List.iter
          (fun key ->
            let got = Btree.search tree ~key in
            let want =
              List.filter_map (fun (k, rid) -> if k = key then Some rid else None) entries
            in
            if got <> want then fail step "search %d disagrees" key)
          [ lo; lo + 1; hi - 1; 13 * step mod 700 ];
        Rid_map.iter
          (fun rid (num, age) ->
            let v = read rid in
            if field "num" v <> num || field "age" v <> age then
              fail step "object %s reads (%d, %d), model (%d, %d)"
                (Format.asprintf "%a" Rid.pp rid) (field "num" v)
                (field "age" v) num age)
          !model
      in
      List.iteri
        (fun step op ->
          (match op with
          | Swap (i, j) ->
              let ri = nth i and rj = nth j in
              let ni, ai = Rid_map.find ri !model and nj, aj = Rid_map.find rj !model in
              update ri ~num:nj ~age:ai;
              update rj ~num:ni ~age:aj
          | Age (i, a) ->
              let r = nth i in
              update r ~num:(fst (Rid_map.find r !model)) ~age:a
          | Add k ->
              let rid =
                Database.insert_object db ~cls:Derby.patient_cls ~indexed:true
                  (Derby.patient_value ~mrn:(10_000 + step) ~age:0 ~sex:'F'
                     ~random_integer:0 ~num:k ~pcp:(Value.Ref Rid.nil))
              in
              model := Rid_map.add rid (k, 0) !model
          | Remove i ->
              let r = nth i in
              Database.delete_object db r;
              model := Rid_map.remove r !model
          | Commit ->
              Database.commit_txn !h;
              h := Database.begin_txn db;
              committed := !model
          | Abort ->
              Database.abort_txn !h;
              h := Database.begin_txn db;
              model := !committed);
          check step)
        ops;
      true)

(* --- the B+-tree bulk path and the log's write set ---

   [Btree.bulk_add] appends to the rightmost leaf's bytes without fetching
   it, replaying the per-entry insert's charges.  The write observer is
   the WAL's only view of a transaction's writes (DESIGN.md 4e), so every
   page the bulk path dirties must be reported to it after the page was
   last written to disk.  With pools this small, a duplicate entry takes
   the slow path just after the rightmost leaf went to disk: the insert
   reads the leaf back read-only and finds the duplicate, and the appends
   that follow must still report the leaf. *)
let test_bulk_add_reports_leaf_writes () =
  let sim = fresh_sim () in
  let disk = Tb_storage.Disk.create sim in
  let stack = Tb_storage.Cache_stack.create sim disk ~server_pages:1 ~client_pages:2 in
  let reported = Hashtbl.create 64 in
  let unreported = ref 0 in
  Tb_storage.Cache_stack.set_write_observer stack
    (Some (fun pid _ -> Hashtbl.replace reported (pid :> int) true));
  Tb_storage.Cache_stack.set_persist_observer stack
    (Some
       (fun pid ->
         if not (Option.value ~default:false (Hashtbl.find_opt reported (pid :> int)))
         then incr unreported;
         Hashtbl.replace reported (pid :> int) false));
  let tree = Btree.create stack ~name:"idx" in
  (* Every (key, rid) twice: the second copy is a duplicate. *)
  let run =
    Array.init 4000 (fun i ->
        let j = i / 2 in
        (j, Tb_storage.Rid.make ~file:0 ~page:(j / 16) ~slot:(j mod 16)))
  in
  Btree.bulk_add tree run;
  Tb_storage.Cache_stack.flush stack;
  check_int "entries" 2000 (Btree.entry_count tree);
  check_int "pages written to disk without a write report since their last write" 0
    !unreported

let suite =
  [
    Alcotest.test_case "txn: transaction-off commit drops the log tail" `Quick
      test_load_off_commit_drops_log_tail;
    Alcotest.test_case "abort: zero writes is a no-op" `Quick
      test_abort_zero_writes;
    Alcotest.test_case "abort: restores the last committed state" `Quick
      test_abort_restores_state;
    Alcotest.test_case "abort: recovers from out of memory" `Quick
      test_abort_after_out_of_memory;
    Alcotest.test_case "abort: a partly stolen loser restores the stolen pages"
      `Quick test_partly_stolen_loser;
    Alcotest.test_case "txn handles: double resolve raises" `Quick
      test_double_resolve_raises;
    Alcotest.test_case "crash: torn write detected and replayed" `Quick
      test_torn_write_detected;
    Alcotest.test_case "faults: read retries charged to the clock" `Quick
      test_read_retries_charged;
    Alcotest.test_case "wal: bulk_add reports every leaf it dirties" `Quick
      test_bulk_add_reports_leaf_writes;
    Alcotest.test_case "crash: seeded sweep recovers every point" `Slow
      test_crash_sweep;
    QCheck_alcotest.to_alcotest rollback_prop;
  ]
