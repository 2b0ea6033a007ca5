(* Allocation budgets: the executor's row path, the B+-tree's lookups,
   the words per object write, and the write path's page-sized blocks.

   The engine is deterministic, so the host allocation of a query is
   reproducible to the word.  Cold queries at scale 500 must stay within
   the minor words they allocate today, rounded up to the next whole word:
   per pinned object for a selective packed seq-scan Fetch and NL join,
   per emitted row for a wide selection and for wide NL, hash and
   sort-merge joins.  A single extra allocation per row (two words at the
   least) trips the budget.  Every run must also charge bit-identically to
   the same query on a fresh twin database — allocation work may never
   move a simulated number.

   The budgets are measured under the default (dev) build profile, where
   each library is compiled opaquely and charges box their float
   arguments; a release build inlines across modules and allocates less,
   so it stays within them too. *)

open Tb_query
module Database = Tb_store.Database
module Counters = Tb_sim.Counters
module Sim = Tb_sim.Sim
module Generator = Tb_derby.Generator

let check_bool = Alcotest.(check bool)

let built () =
  let scale = 500 in
  Generator.build
    ~cost:(Tb_sim.Cost_model.scaled scale)
    (Generator.config ~scale `Deep Generator.Class_clustered)

type run = {
  packed_fetch : bool;  (** the plan scans through a packed Fetch *)
  pins : int;  (** objects pinned: Handle allocations plus hits *)
  rows : int;  (** rows the query emitted *)
  words : float;  (** minor words allocated by the run *)
  counters : string;
  now_bits : int64;
  work_bits : int64;
}

(* Lower once, then run cold and count only what the executor allocates. *)
let run db ?force_algo ?force_seq text =
  let plan = Planner.plan ?force_algo ?force_seq db (Oql_parser.parse text) in
  let root = Planner.lower ~packed:true plan in
  Database.cold_restart db;
  let sim = Database.sim db in
  let c = sim.Sim.counters in
  let pins0 = c.Counters.handle_allocs + c.Counters.handle_hits in
  let w0 = Gc.minor_words () in
  let r = Exec.run db root ~keep:false in
  let words = Gc.minor_words () -. w0 in
  let pins = c.Counters.handle_allocs + c.Counters.handle_hits - pins0 in
  let rows = Query_result.rows_seen r in
  Query_result.dispose r;
  let packed_fetch = ref false in
  Op.iter
    (fun n ->
      match n.Op.kind with
      | Op.Fetch { mode = Op.Packed; covering = false; _ } -> packed_fetch := true
      | _ -> ())
    root;
  {
    packed_fetch = !packed_fetch;
    pins;
    rows;
    words;
    counters = Format.asprintf "%a" Counters.pp c;
    now_bits = Int64.bits_of_float (Tb_sim.Clock.now_ms sim.Sim.clock);
    work_bits = Int64.bits_of_float (Tb_sim.Clock.work_ms sim.Sim.clock);
  }

let scan = "select pa.age from pa in Patients where pa.num < 6"

(* Half of each extent: most pinned objects reach the projection, so the
   per-row figure is the row path's, not the rejected objects'. *)
let wide_scan = "select [pa.mrn, pa.age] from pa in Patients where pa.num < 3000"

let wide_join =
  "select [p.name, pa.age] from p in Providers, pa in p.clients where pa.mrn < \
   3000 and p.upin < 1000"

let join =
  "select [p.name, pa.age] from p in Providers, pa in p.clients where pa.mrn < \
   60 and p.upin < 20"

(* (name, force_algo, force_seq, text, words per pinned object, words per
   emitted row).  The hash and sort-merge joins carry their stored side as
   slot-ordered payloads, so they gate the payload path too. *)
let budgets =
  [
    ("seq-scan fetch (packed)", None, Some true, scan, Some 10.0, None);
    ("NL join", Some Plan.NL, None, join, Some 43.0, None);
    ("wide selection", None, Some true, wide_scan, None, Some 50.0);
    ("wide NL join", Some Plan.NL, None, wide_join, None, Some 135.0);
    ("wide PHJ", Some Plan.PHJ, None, wide_join, None, Some 105.0);
    ("wide CHJ", Some Plan.CHJ, None, wide_join, None, Some 144.0);
    ("wide sort-merge", Some Plan.SMJ, None, wide_join, None, Some 134.0);
  ]

let within name ~per what count budget =
  Option.iter
    (fun budget ->
      let x = per /. float_of_int count in
      check_bool
        (Printf.sprintf "%s: %.2f minor words per %s <= %.0f" name x what budget)
        true (x <= budget))
    budget

let test_row_path_budget () =
  let db = (built ()).Generator.db in
  let twin = (built ()).Generator.db in
  List.iter
    (fun (name, force_algo, force_seq, text, pin_budget, row_budget) ->
      let a = run db ?force_algo ?force_seq text in
      let b = run twin ?force_algo ?force_seq text in
      check_bool (name ^ ": pins objects") true (a.pins > 0);
      check_bool (name ^ ": emits rows") true (a.rows > 0);
      check_bool (name ^ ": scans through a packed Fetch") true a.packed_fetch;
      within name ~per:a.words "pinned object" a.pins pin_budget;
      within name ~per:a.words "emitted row" a.rows row_budget;
      Alcotest.(check string) (name ^ ": counters match the twin") b.counters
        a.counters;
      Alcotest.(check int64) (name ^ ": elapsed bits match the twin")
        b.now_bits a.now_bits;
      Alcotest.(check int64) (name ^ ": work bits match the twin") b.work_bits
        a.work_bits)
    budgets

(* --- Handle churn ---

   A Handle is a slab slot, and the table's index and zombie FIFO are flat
   arrays, so pinning and releasing an object cold allocates nothing of its
   own.  What remains is the page fetches' share (a page per fifty-odd
   objects) and the miss's own charges, which box their floats in the dev
   profile and so are measured rather than assumed, as for the B+-tree
   below. *)

let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_cold_acquire_budget () =
  let b = built () in
  let db = b.Generator.db in
  let patients = b.Generator.patients in
  let n = Array.length patients in
  let churn () =
    Array.iter (fun rid -> Database.unref db (Database.acquire db rid)) patients
  in
  (* Warm the slab, the index and the pools' tables to their working size. *)
  Database.cold_restart db;
  churn ();
  Database.cold_restart db;
  let c = (Database.sim db).Sim.counters in
  let allocs0 = c.Counters.handle_allocs and frees0 = c.Counters.handle_frees in
  let per_object = words churn /. float_of_int n in
  Alcotest.(check int) "every patient is a Handle miss" n
    (c.Counters.handle_allocs - allocs0);
  (* The charges a miss makes, on a separate simulator: one allocation and
     its memory claim (and a free if the zombie pool overflowed). *)
  let sim = Sim.create (Database.sim db).Sim.cost in
  let kind = Tb_sim.Cost_model.Fat in
  let bytes = Tb_sim.Cost_model.handle_bytes sim.Sim.cost kind in
  let frees = c.Counters.handle_frees - frees0 in
  let charges =
    words (fun () ->
        for i = 1 to n do
          Sim.charge_handle_alloc sim kind;
          Sim.claim_bytes sim bytes;
          if i <= frees then begin
            Sim.charge_handle_free sim kind;
            Sim.release_bytes sim bytes
          end
        done)
    /. float_of_int n
  in
  check_bool
    (Printf.sprintf
       "cold acquire/unref: %.2f minor words per object beyond its charges' %.2f < 1"
       (per_object -. charges) charges)
    true
    (per_object -. charges < 1.0)

(* --- B+-tree lookups ---

   [search] and [range] read entries straight out of the leaf bytes, so a
   visited entry costs no allocation beyond its result (a list cell for
   [search], nothing for [range]) and the one comparison it charges —
   which boxes its float in the dev profile, so it is measured rather than
   assumed.  The slack of one word per entry covers the per-leaf fetch
   (about a quarter word per entry when the fetch misses both pools);
   decoding a leaf would cost four. *)

let test_btree_lookup_budget () =
  let sim = Sim.create (Tb_sim.Cost_model.scaled 100) in
  let disk = Tb_storage.Disk.create sim in
  let stack =
    Tb_storage.Cache_stack.create sim disk ~server_pages:512 ~client_pages:512
  in
  (* 20,000 entries over about 100 leaves; key 7 alone spans 10 leaves. *)
  let n = 20_000 and dups = 2_000 in
  let run =
    Array.init n (fun i ->
        let key = if i < dups then 7 else i in
        (key, Tb_storage.Rid.make ~file:0 ~page:(i / 16) ~slot:(i mod 16)))
  in
  let tree = Tb_store.Btree.bulk_build stack ~name:"idx" run in
  let calls = 10_000 in
  let per_compare =
    words (fun () ->
        for _ = 1 to calls do
          Sim.charge_compare sim 1
        done)
    /. float_of_int calls
  in
  let visit _ _ = () in
  let check_pass what =
    let found = ref [] in
    let search_words = words (fun () -> found := Tb_store.Btree.search tree ~key:7) in
    let range_words = words (fun () -> Tb_store.Btree.range tree visit) in
    Alcotest.(check int) (what ^ ": search finds every duplicate") dups
      (List.length !found);
    let slack = 1.0 in
    let search_per = (search_words /. float_of_int dups) -. per_compare in
    let range_per = (range_words /. float_of_int n) -. per_compare in
    check_bool
      (Printf.sprintf "%s: search %.2f words per entry beyond its charge <= 3 + %.2f"
         what search_per slack)
      true (search_per <= 3.0 +. slack);
    check_bool
      (Printf.sprintf "%s: range %.2f words per entry beyond its charge <= %.2f" what
         range_per slack)
      true (range_per <= slack)
  in
  ignore (Tb_store.Btree.search tree ~key:7);
  Tb_store.Btree.range tree visit;
  check_pass "resident";
  (* The abort path: pools dropped, every node page reloaded. *)
  Tb_storage.Cache_stack.flush stack;
  Tb_storage.Cache_stack.drop stack;
  check_pass "after a pool drop"

(* --- The write path ---

   [update_object] and [delete_object] read the old record where it lies
   in its page and encode the new one straight into a reused buffer, so a
   write allocates only what its B+-tree edits, its charges and its WAL
   accounting do.  Each budget is minor words per call, net of the
   caller's value (built before the measured pass), measured in a
   standard-mode transaction with pools that hold the working set, after
   a first pass over the same records so that no buffer grows during the
   measured one.  The twin database runs the same calls unmeasured and
   must end with bit-identical charges. *)

let write_db () =
  let scale = 500 in
  let cfg = Generator.config ~scale `Deep Generator.Class_clustered in
  Generator.build
    ~cost:(Tb_sim.Cost_model.scaled scale)
    {
      cfg with
      Generator.txn_mode = Tb_store.Transaction.Standard;
      server_pages = 256;
      client_pages = 256;
    }

let set_int name x = function
  | Tb_store.Value.Tuple fields ->
      Tb_store.Value.Tuple
        (List.map
           (fun (n, y) -> if String.equal n name then (n, Tb_store.Value.Int x) else (n, y))
           fields)
  | _ -> Alcotest.fail "patient is not a tuple"

let int_attr name = function
  | Tb_store.Value.Tuple fields -> (
      match Tb_store.Value.assoc name fields with
      | Tb_store.Value.Int k -> k
      | _ -> Alcotest.fail (name ^ " is not an int"))
  | _ -> Alcotest.fail "patient is not a tuple"

type write_run = {
  age_words : float;  (** per same-size [age] update *)
  swap_words : float;  (** per [num] update of a swap, index edits included *)
  delete_words : float;  (** per [delete_object] *)
  w_counters : string;
  w_now_bits : int64;
}

let write_calls = 200

let run_writes (b : Generator.built) =
  let db = b.Generator.db in
  let rid i = b.Generator.patients.(i * 9) in
  let read i = snd (Database.read_object db (rid i)) in
  let n = write_calls in
  let h = Database.begin_txn db in
  let per f = words f /. float_of_int n in
  let ages round = Array.init n (fun i -> set_int "age" ((round * 7) + i) (read i)) in
  let update_all vals = Array.iteri (fun i v -> Database.update_object db (rid i) v) vals in
  update_all (ages 1);
  let vals = ages 2 in
  let age_words = per (fun () -> update_all vals) in
  (* Swap the nums of records 2k and 2k+1: two updates, each moving one
     index entry. *)
  let swaps () =
    Array.init n (fun i ->
        let mate = i lxor 1 in
        set_int "num" (int_attr "num" (read mate)) (read i))
  in
  update_all (swaps ());
  let vals = swaps () in
  let swap_words = per (fun () -> update_all vals) in
  let delete_from first =
    for i = first to first + n - 1 do
      Database.delete_object db (rid i)
    done
  in
  delete_from n;
  let delete_words = per (fun () -> delete_from (2 * n)) in
  Database.abort_txn h;
  let sim = Database.sim db in
  {
    age_words;
    swap_words;
    delete_words;
    w_counters = Format.asprintf "%a" Counters.pp sim.Sim.counters;
    w_now_bits = Int64.bits_of_float (Tb_sim.Clock.now_ms sim.Sim.clock);
  }

let test_write_budget () =
  let a = run_writes (write_db ()) in
  let b = run_writes (write_db ()) in
  let gate what x budget =
    check_bool
      (Printf.sprintf "%s: %.2f minor words per call <= %.0f" what x budget)
      true (x <= budget)
  in
  (* Before the byte-level write path: 409.03, 427.03 and 681.59.  A
     delete's figure is mostly the B+-tree's: these deletes empty leaves,
     and each merge copies its nodes out. *)
  gate "same-size update (age)" a.age_words 38.0;
  gate "num swap update, index edits included" a.swap_words 56.0;
  gate "delete_object" a.delete_words 496.0;
  Alcotest.(check string) "writes: counters match the twin" b.w_counters a.w_counters;
  Alcotest.(check int64) "writes: elapsed bits match the twin" b.w_now_bits a.w_now_bits

(* --- page-sized blocks on the write path ---

   A page image is bigger than the minor heap's largest block, so every
   page copy lands straight in the major heap.  Once a transaction has run,
   a second one over the same pages needs none: clean working pages stay
   pooled (and memoized across an abort), and the WAL refills the previous
   transaction's before-image buffers. *)

(* [Gc.counters], not [Gc.quick_stat]: the latter only folds in the
   current domain's major allocations at a collection. *)
let direct_major_words f =
  let _, promoted0, major0 = Gc.counters () in
  f ();
  let _, promoted1, major1 = Gc.counters () in
  major1 -. promoted1 -. (major0 -. promoted0)

let test_txn_page_blocks () =
  let scale = 5000 in
  let cfg = Generator.config ~scale `Deep Generator.Class_clustered in
  let b =
    Generator.build
      ~cost:(Tb_sim.Cost_model.scaled scale)
      { cfg with Generator.txn_mode = Tb_store.Transaction.Standard }
  in
  let db = b.Generator.db in
  let patients = b.Generator.patients in
  let set name x v =
    match v with
    | Tb_store.Value.Tuple fields ->
        Tb_store.Value.Tuple
          (List.map
             (fun (n, y) -> if n = name then (n, Tb_store.Value.Int x) else (n, y))
             fields)
    | _ -> Alcotest.fail "patient is not a tuple"
  in
  let num rid =
    match snd (Database.read_object db rid) with
    | Tb_store.Value.Tuple fields -> (
        match List.assoc "num" fields with
        | Tb_store.Value.Int k -> k
        | _ -> Alcotest.fail "num is not an int")
    | _ -> Alcotest.fail "patient is not a tuple"
  in
  (* Ten age updates across the extent plus one swap of indexed nums. *)
  let txn round resolve =
    let h = Database.begin_txn db in
    for i = 0 to 9 do
      let rid = patients.(i * 50) in
      Database.update_object db rid
        (set "age" (round + i) (snd (Database.read_object db rid)))
    done;
    let a = patients.(3) and z = patients.(400) in
    let na = num a and nz = num z in
    Database.update_object db a (set "num" nz (snd (Database.read_object db a)));
    Database.update_object db z (set "num" na (snd (Database.read_object db z)));
    resolve h
  in
  txn 0 Database.commit_txn;
  let committed = direct_major_words (fun () -> txn 1 Database.commit_txn) in
  let aborted = direct_major_words (fun () -> txn 2 Database.abort_txn) in
  Alcotest.(check (float 0.0)) "second committed transaction: no page-sized block" 0.0
    committed;
  Alcotest.(check (float 0.0)) "aborted repeat: no page-sized block" 0.0 aborted;
  (* With pools that hold every page it touches, a transaction steals
     nothing, so its log takes no before-image at all: the durable images
     already are the before-images. *)
  let b =
    Generator.build
      ~cost:(Tb_sim.Cost_model.scaled scale)
      {
        cfg with
        Generator.txn_mode = Tb_store.Transaction.Standard;
        server_pages = 256;
        client_pages = 256;
      }
  in
  let db = b.Generator.db in
  let wal = Tb_store.Transaction.wal (Database.txn db) in
  let images = ref [] in
  let resolve_noting f h =
    images :=
      (Tb_store.Wal.touched_pages wal, Tb_store.Wal.stolen_pages wal) :: !images;
    f h
  in
  let txn round resolve =
    let h = Database.begin_txn db in
    for i = 0 to 9 do
      let rid = b.Generator.patients.(i * 50) in
      Database.update_object db rid
        (set "age" (round + i) (snd (Database.read_object db rid)))
    done;
    resolve h
  in
  txn 0 Database.commit_txn;
  let undo0 = (Database.sim db).Sim.counters.Counters.undo_pages in
  txn 1 (resolve_noting Database.commit_txn);
  txn 2 (resolve_noting Database.abort_txn);
  List.iter
    (fun (touched, stolen) ->
      check_bool "the transaction touched pages" true (touched > 0);
      Alcotest.(check int) "no steal, no before-image" 0 stolen)
    !images;
  Alcotest.(check int) "the abort restores nothing" undo0
    (Database.sim db).Sim.counters.Counters.undo_pages

let suite =
  [
    Alcotest.test_case "row path: minor words per pinned object, charges exact"
      `Quick test_row_path_budget;
    Alcotest.test_case "handles: cold acquire/unref allocates under a word per object"
      `Quick test_cold_acquire_budget;
    Alcotest.test_case "btree: search and range allocate nothing per entry"
      `Quick test_btree_lookup_budget;
    Alcotest.test_case "txn: a repeat transaction copies no page" `Quick
      test_txn_page_blocks;
    Alcotest.test_case "writes: minor words per update and delete, charges exact"
      `Quick test_write_budget;
  ]
