(* Allocation budgets: the executor's row path, rows nobody keeps, spilled
   records, the B+-tree's lookups, the words per object write, the write
   path's page-sized blocks, the optimizer's words per call, and every
   micro kernel's words per call.

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
   so it stays within them too.  The micro kernels' budgets are exact to
   2%: in another profile only their ceilings are checked. *)

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
let run db ?force_algo ?force_seq ?(keep = false) text =
  let plan = Planner.plan ?force_algo ?force_seq db (Oql_parser.parse text) in
  let root = Planner.lower ~packed:true plan in
  Database.cold_restart db;
  let sim = Database.sim db in
  let c = sim.Sim.counters in
  let pins0 = c.Counters.handle_allocs + c.Counters.handle_hits in
  let w0 = Gc.minor_words () in
  let r = Exec.run db root ~keep in
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

(* (name, force_algo, force_seq, keep, text, words per pinned object,
   words per emitted row).  The hash and sort-merge joins carry their
   stored side as slot-ordered payloads, so they gate the payload path
   too.  A result that keeps no rows sizes them instead of building them;
   the kept reading of the wide NL join gates the path that builds. *)
let budgets =
  [
    ("seq-scan fetch (packed)", None, Some true, false, scan, Some 10.0, None);
    ("NL join", Some Plan.NL, None, false, join, Some 43.0, None);
    ("wide selection", None, Some true, false, wide_scan, None, Some 32.0);
    ("wide NL join", Some Plan.NL, None, false, wide_join, None, Some 95.0);
    ("wide NL join, kept", Some Plan.NL, None, true, wide_join, None, Some 120.0);
    ("wide PHJ", Some Plan.PHJ, None, false, wide_join, None, Some 85.0);
    ("wide CHJ", Some Plan.CHJ, None, false, wide_join, None, Some 108.0);
    ("wide sort-merge", Some Plan.SMJ, None, false, wide_join, None, Some 119.0);
  ]

let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Budgets read in the dev profile are exact to 2% there; in another
   profile only their ceilings are checked. *)
let kernel_floor = String.equal Build_profile.name "dev"

(* Words per un-kept projected row beyond a count's, and per spilled
   record written and read back (see below). *)
let unkept_row_budget = 6.0
let spill_write_budget = 13.0
let spill_read_budget = 13.0

(* Words per operator [Estimate.annotate] writes (see the optimizer). *)
let annotate_op_budget = 15.1

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
    (fun (name, force_algo, force_seq, keep, text, pin_budget, row_budget) ->
      let a = run db ?force_algo ?force_seq ~keep text in
      let b = run twin ?force_algo ?force_seq ~keep text in
      Printf.printf "%-26s %8.2f words per pinned object %8.2f per emitted row\n" name
        (a.words /. float_of_int a.pins) (a.words /. float_of_int a.rows);
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

(* --- rows nobody keeps ---

   A result that keeps no rows reads a row only for its size, so the
   projection sizes its attributes where they lie and builds nothing.
   Against a count of the same rows (which reads no attribute), a wide
   projected row costs only its two attribute reads' charges and its
   result append's, which box their floats in the dev profile; building
   the [p.name, pa.age] tuple would add 16 words or more. *)

let wide_join_count =
  "select count(pa) from p in Providers, pa in p.clients where pa.mrn < 3000 and \
   p.upin < 1000"

let test_unkept_row_budget () =
  let db = (built ()).Generator.db in
  let twin = (built ()).Generator.db in
  let measure db =
    let rows = run db ~force_algo:Plan.NL wide_join in
    let count = run db ~force_algo:Plan.NL wide_join_count in
    (rows, count)
  in
  let rows, count = measure db in
  let rows', count' = measure twin in
  check_bool "the projection emits rows" true (rows.rows > 1000);
  let per_row = (rows.words -. count.words) /. float_of_int rows.rows in
  Printf.printf "un-kept projected row: %.2f words beyond a count's\n" per_row;
  check_bool
    (Printf.sprintf "un-kept projected row: %.2f minor words beyond a count's <= %.0f"
       per_row unkept_row_budget)
    true (per_row <= unkept_row_budget);
  List.iter
    (fun (what, a, b) ->
      Alcotest.(check string) (what ^ ": counters match the twin") b.counters a.counters;
      Alcotest.(check int64) (what ^ ": elapsed bits match the twin") b.now_bits a.now_bits;
      Alcotest.(check int64) (what ^ ": work bits match the twin") b.work_bits a.work_bits)
    [ ("projection", rows, rows'); ("count", count, count') ]

(* --- spilled records ---

   A hybrid hash join writes each spilled (key, payload) record field by
   field into one reused buffer and reads it back in place, decoding only
   the payload's values.  Writing one builds no tuple and copies no
   record: it costs its heap insert (about 12 words here, the page fetch
   and its charges), and encoding the values allocates nothing.  Reading
   it back costs the payload it hands back: its record, its value array
   and the values. *)

let test_spill_record_budget () =
  let measure db =
    let n = 2000 in
    let sp = Operators.new_spill db ~names:[ "name"; "age" ] ~buckets:1 in
    let payloads =
      Array.init n (fun i ->
          {
            Op.self = Tb_storage.Rid.make ~file:1 ~page:(i / 50) ~slot:(i mod 50);
            vals = [| Tb_store.Value.String (Printf.sprintf "pp%04d" i); Tb_store.Value.Int i |];
          })
    in
    let key = Tb_storage.Rid.make ~file:0 ~page:3 ~slot:7 in
    Database.cold_restart db;
    let write =
      words (fun () -> Array.iter (fun p -> Operators.spill sp 0 ~key p) payloads)
    in
    let read_back = ref 0 in
    let read =
      words (fun () -> Operators.iter_spilled sp 0 (fun _ _ -> incr read_back))
    in
    Operators.release_spill db sp;
    Alcotest.(check int) "every record reads back" n !read_back;
    let sim = Database.sim db in
    ( write /. float_of_int n,
      read /. float_of_int n,
      Format.asprintf "%a" Counters.pp sim.Sim.counters,
      Int64.bits_of_float (Tb_sim.Clock.now_ms sim.Sim.clock) )
  in
  let write, read, counters, now = measure (built ()).Generator.db in
  let _, _, counters', now' = measure (built ()).Generator.db in
  Printf.printf "spilled record: %.2f words to write, %.2f to read back\n" write read;
  check_bool
    (Printf.sprintf "spilled record: %.2f minor words to write <= %.0f" write
       spill_write_budget)
    true (write <= spill_write_budget);
  check_bool
    (Printf.sprintf "spilled record: %.2f minor words to read back <= %.0f" read
       spill_read_budget)
    true (read <= spill_read_budget);
  Alcotest.(check string) "spill: counters match the twin" counters' counters;
  Alcotest.(check int64) "spill: elapsed bits match the twin" now' now

(* Encoding a value into a buffer allocates nothing: every value the
   loader, [update_object] and a spill write pays this. *)
let test_encode_into () =
  let buf = Bytes.create 64 in
  List.iter
    (fun (what, v) ->
      ignore (Tb_store.Codec.encode_into v buf ~pos:0);
      Alcotest.(check (float 0.0))
        ("Codec.encode_into of " ^ what ^ " allocates nothing")
        0.0
        (words (fun () -> ignore (Sys.opaque_identity (Tb_store.Codec.encode_into v buf ~pos:0)))))
    [ ("an Int", Tb_store.Value.Int 42); ("a String", Tb_store.Value.String "pp0042") ]

(* --- Handle churn ---

   A Handle is a slab slot, and the table's index and zombie FIFO are flat
   arrays, so pinning and releasing an object cold allocates nothing of its
   own.  What remains is the page fetches' share (a page per fifty-odd
   objects) and the miss's own charges, which box their floats in the dev
   profile and so are measured rather than assumed, as for the B+-tree
   below. *)

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

(* --- Pool misses ---

   A fetch that misses both pools evicts in each.  The loaded page is the
   disk's memo (a clean page shares its durable image), each pool reports
   its victim in place and recycles the victim's node, so beyond its
   charges a miss allocates only the two hash-table buckets (four words
   each) that key the recycled nodes under the new page. *)

let test_cold_miss_budget () =
  let sim = Sim.create (Tb_sim.Cost_model.scaled 100) in
  let disk = Tb_storage.Disk.create sim in
  let stack =
    Tb_storage.Cache_stack.create sim disk ~server_pages:8 ~client_pages:16
  in
  let file = Tb_storage.Disk.new_file disk ~name:"f" in
  let n = 512 in
  let pids =
    Array.init n (fun _ ->
        Tb_storage.Page_id.make ~file ~index:(Tb_storage.Disk.append_page disk ~file))
  in
  (* A cyclic sweep larger than both pools misses both on every fetch. *)
  let sweep () =
    for i = 0 to n - 1 do
      ignore (Tb_storage.Cache_stack.fetch stack pids.(i))
    done
  in
  sweep ();
  let c = sim.Sim.counters in
  let client0 = c.Counters.client_misses and server0 = c.Counters.server_misses in
  let miss_words = (words sweep -. words ignore) /. float_of_int n in
  Alcotest.(check int) "every fetch misses the client" n (c.Counters.client_misses - client0);
  Alcotest.(check int) "every fetch misses the server" n (c.Counters.server_misses - server0);
  (* The charges a miss makes, on a separate simulator. *)
  let twin = Sim.create sim.Sim.cost in
  let charges =
    words (fun () ->
        for _ = 1 to n do
          Sim.charge_rpc twin ~pages:1;
          Sim.charge_disk_read twin
        done)
    /. float_of_int n
  in
  check_bool
    (Printf.sprintf "cold miss: %.2f minor words beyond its charges' %.2f <= 8"
       (miss_words -. charges) charges)
    true
    (miss_words -. charges <= 8.0)

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

(* --- the optimizer ---

   [Planner.optimize] costs each enumerated plan once, as a shape with no
   run frames, gives frames to its winner only and formats no candidate
   description, and the statistics it reads (extents, indexes,
   corrections) are found without allocating.  Its words per call, on a
   retained catalog, are budgeted to the measured value rounded up, so
   one extra two-word allocation per candidate trips the point selection
   (three plans, six ranked candidates) and the point join (thirteen
   plans).  Like the kernels' budgets they are exact to 2% in the dev
   profile, so the change that earns a drop records it here.  The cost
   stage allocates each operator's estimate and a few words of argument
   boxing, never a stream record.  The tree walks every run makes,
   [Op.reset_frames] and the cost stage's [Est.sum_ms], allocate nothing
   per operator. *)

let point_selection = "select pa.mrn from pa in Patients where pa.num = 123"
let point_join = "select pa.mrn from p in Providers, pa in p.clients where p.upin = 7"

(* Above the budget, or (dev profile) more than 2% under it. *)
let at_budget what x budget =
  check_bool (Printf.sprintf "%s: %.2f minor words <= %g" what x budget) true
    (x <= budget);
  if kernel_floor then
    check_bool
      (Printf.sprintf "%s: %.2f minor words, within 2%% of %g" what x budget)
      true
      (x >= budget *. 0.98)

let test_optimizer_budget () =
  let db = (built ()).Generator.db in
  let stats = Tb_statcore.Stat_catalog.analyze db in
  let per_call text =
    ignore (Planner.optimize ~stats db text);
    let reps = 10 in
    words (fun () ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (Planner.optimize ~stats db text))
        done)
    /. float_of_int reps
  in
  List.iter
    (fun (what, text, budget) ->
      at_budget ("optimize " ^ what ^ " per call") (per_call text) budget)
    [ ("point selection", point_selection, 1106.0); ("point join", point_join, 6340.0) ]

(* The point join's thirteen candidates, shaped as [optimize] shapes them:
   annotating them costs each operator its estimate, and none of them owns
   a frame.  The tree [optimize] keeps owns one at every node. *)
let test_costing_budget () =
  let db = (built ()).Generator.db in
  let stats = Tb_statcore.Stat_catalog.analyze db in
  let shapes =
    List.map
      (fun plan -> Planner.shape ~packed:true plan)
      (Enumerate.candidates stats (Plan.bind db (Oql_parser.parse point_join)))
  in
  Alcotest.(check int) "the point join has thirteen candidates" 13 (List.length shapes);
  let ops = ref 0 in
  List.iter (Op.iter (fun _ -> incr ops)) shapes;
  let annotate_all () = List.iter (fun root -> Estimate.annotate ~stats root) shapes in
  annotate_all ();
  let x = words annotate_all /. float_of_int !ops in
  Printf.printf "annotate: %.2f minor words per operator over %d\n" x !ops;
  at_budget "Estimate.annotate per operator" x annotate_op_budget;
  List.iter
    (Op.iter (fun n ->
         if Op.has_frame n then Alcotest.failf "a costed candidate owns a frame: %s" (Op.label n)))
    shapes;
  Op.iter
    (fun n ->
      if not (Op.has_frame n) then Alcotest.failf "the winner's %s has no frame" (Op.label n))
    (Planner.optimize ~stats db point_join).Planner.d_root

let test_tree_walks () =
  let db = (built ()).Generator.db in
  let stats = Tb_statcore.Stat_catalog.analyze db in
  let lowered ?force_algo text =
    let root =
      Planner.lower (Planner.plan ?force_algo db (Oql_parser.parse text))
    in
    Estimate.annotate ~stats root;
    root
  in
  let join = lowered ~force_algo:Plan.PHJ point_join in
  let leaf = Op.make (Op.Seq_scan { cls = "Patient" }) in
  Estimate.annotate ~stats leaf;
  let nodes = ref 0 and framed = ref 0 in
  Op.iter (fun n -> incr nodes; if Op.has_frame n then incr framed) join;
  check_bool "the join tree has both sides" true (!nodes >= 8);
  (* Lowered to run: every node owns its frame before the first run. *)
  Alcotest.(check int) "the join tree is ready to run" !nodes !framed;
  Alcotest.(check (float 0.0)) "Op.reset_frames allocates nothing" 0.0
    (words (fun () -> Op.reset_frames join));
  (* A constant few words: the accumulator cell, the walk's closure and the
     boxed float result.  None of them may depend on the tree. *)
  let sum root = words (fun () -> ignore (Sys.opaque_identity (Op.Est.sum_ms root))) in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "Est.sum_ms over %d operators allocates what it does over one"
       !nodes)
    (sum leaf) (sum join)

(* --- the micro kernels ---

   Every kernel that bench/main.exe --micro times (one per paper table,
   {!Tb_micro.Micro.kernels}) is budgeted here by name: minor words and
   direct major words (page-sized blocks) per call, over ten calls after
   two warming ones.  Allocation does not depend on the host, so each
   budget is the dev-profile figure rounded up to the next word, with no
   margin: a kernel fails above its budget, and also (in the dev profile,
   where the figures were read) more than 2% below it, so that the change
   which earns a drop records it here.  A compiler upgrade can move the
   figures too; re-read the table then. *)

let kernel_budgets =
  [
    ("fig6.index_scan", 7611.0, 0.0);
    ("fig6.optimizer_sweep", 7852.0, 0.0);
    ("fig7.sorted_index_scan", 7634.0, 602.0);
    ("fig7.full_scan", 9697.0, 0.0);
    ("fig7.sharded_scan", 11209.0, 0.0);
    ("fig7.sharded_scan_degraded", 11697.0, 0.0);
    ("fig7.packed_scan", 5021.0, 0.0);
    ("fig11_14.nl", 13810.0, 0.0);
    ("fig11_14.nojoin", 12326.0, 602.0);
    ("fig11_14.phj", 15507.0, 1627.0);
    ("fig11_14.chj", 18638.0, 1627.0);
    ("fig11_14.optimizer_join", 6342.0, 0.0);
    ("ext.phhj", 17645.0, 1627.0);
    ("ext.smj", 20925.0, 903.0);
    ("ext.count", 9059.0, 0.0);
    ("fig10.hash_build", 7217.0, 1025.0);
    ("fig9.handle_churn", 2407.0, 0.0);
    ("fig9.packed_churn", 4813.0, 0.0);
    ("sec3.btree_insert_1k", 4569.0, 15414.0);
    ("sec3.btree_bulk_build_1k", 1389.0, 16844.0);
    ("sec3.btree_delete_1k", 124861.0, 266915.0);
    ("fig6.index_range", 742.0, 0.0);
  ]

let kernel_calls = 10

let test_kernel_budgets () =
  let kernels = Tb_micro.Micro.kernels () in
  let faults = ref [] in
  let fault fmt = Printf.ksprintf (fun m -> faults := m :: !faults) fmt in
  List.iter
    (fun (name, _, _) ->
      if not (List.mem_assoc name kernels) then fault "%s: a budget row for no kernel" name)
    kernel_budgets;
  List.iter
    (fun (name, f) ->
      f ();
      f ();
      let major = ref 0.0 in
      let minor =
        words (fun () ->
            major :=
              direct_major_words (fun () ->
                  for _ = 1 to kernel_calls do
                    f ()
                  done))
      in
      let per x = x /. float_of_int kernel_calls in
      let minor = per minor and major = per !major in
      Printf.printf "%-28s %10.1f minor %10.1f direct major words per call\n" name
        minor major;
      match List.find_opt (fun (n, _, _) -> String.equal n name) kernel_budgets with
      | None -> fault "%s: no budget row" name
      | Some (_, budget_minor, budget_major) ->
          List.iter
            (fun (what, x, budget) ->
              if x > budget then
                fault "%s: %.1f %s words per call, over its budget of %.0f" name x what
                  budget
              else if kernel_floor && x < budget *. 0.98 then
                fault "%s: %.1f %s words per call, more than 2%% under its budget of \
                       %.0f: lower the budget"
                  name x what budget)
            [ ("minor", minor, budget_minor); ("direct major", major, budget_major) ])
    kernels;
  match List.rev !faults with
  | [] -> ()
  | faults -> Alcotest.fail (String.concat "\n" faults)

let suite =
  [
    Alcotest.test_case "row path: minor words per pinned object, charges exact"
      `Quick test_row_path_budget;
    Alcotest.test_case "rows: words per un-kept projected row, charges exact" `Quick
      test_unkept_row_budget;
    Alcotest.test_case "spill: words per spilled record, charges exact" `Quick
      test_spill_record_budget;
    Alcotest.test_case "codec: encode_into of an Int and a String allocates nothing" `Quick
      test_encode_into;
    Alcotest.test_case "handles: cold acquire/unref allocates under a word per object"
      `Quick test_cold_acquire_budget;
    Alcotest.test_case "btree: search and range allocate nothing per entry"
      `Quick test_btree_lookup_budget;
    Alcotest.test_case "pool: a cold client-and-server miss allocates two buckets"
      `Quick test_cold_miss_budget;
    Alcotest.test_case "txn: a repeat transaction copies no page" `Quick
      test_txn_page_blocks;
    Alcotest.test_case "writes: minor words per update and delete, charges exact"
      `Quick test_write_budget;
    Alcotest.test_case "optimizer: minor words per optimize, point selection and join"
      `Quick test_optimizer_budget;
    Alcotest.test_case "optimizer: costing allocates estimates per operator, and no frame"
      `Quick test_costing_budget;
    Alcotest.test_case "tree walks: reset_frames and sum_ms allocate nothing per operator"
      `Quick test_tree_walks;
    Alcotest.test_case "kernels: words per call of every micro kernel, at budget"
      `Quick test_kernel_budgets;
  ]
