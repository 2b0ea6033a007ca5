(* Allocation budget of the executor's row path.

   The engine is deterministic, so the host allocation of a query is
   reproducible to the word.  A cold packed seq-scan Fetch and a cold NL
   join at scale 500 must stay within the minor words per pinned object
   they allocate today, rounded up to the next whole word: a single extra
   allocation per row (two words at the least) trips the budget.  Both
   runs must also charge bit-identically to the same query on a fresh
   twin database — allocation work may never move a simulated number.

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
    words;
    counters = Format.asprintf "%a" Counters.pp c;
    now_bits = Int64.bits_of_float (Tb_sim.Clock.now_ms sim.Sim.clock);
    work_bits = Int64.bits_of_float (Tb_sim.Clock.work_ms sim.Sim.clock);
  }

let scan = "select pa.age from pa in Patients where pa.num < 6"

let join =
  "select [p.name, pa.age] from p in Providers, pa in p.clients where pa.mrn < \
   60 and p.upin < 20"

(* (name, force_algo, force_seq, text, words per pinned object) *)
let budgets =
  [
    ("seq-scan fetch (packed)", None, Some true, scan, 30.0);
    ("NL join", Some Plan.NL, None, join, 75.0);
  ]

let test_row_path_budget () =
  let db = (built ()).Generator.db in
  let twin = (built ()).Generator.db in
  List.iter
    (fun (name, force_algo, force_seq, text, budget) ->
      let a = run db ?force_algo ?force_seq text in
      let b = run twin ?force_algo ?force_seq text in
      let per_pin = a.words /. float_of_int a.pins in
      check_bool (name ^ ": pins objects") true (a.pins > 0);
      check_bool (name ^ ": scans through a packed Fetch") true a.packed_fetch;
      check_bool
        (Printf.sprintf "%s: %.2f minor words per pinned object <= %.0f" name
           per_pin budget)
        true (per_pin <= budget);
      Alcotest.(check string) (name ^ ": counters match the twin") b.counters
        a.counters;
      Alcotest.(check int64) (name ^ ": elapsed bits match the twin")
        b.now_bits a.now_bits;
      Alcotest.(check int64) (name ^ ": work bits match the twin") b.work_bits
        a.work_bits)
    budgets

let suite =
  [
    Alcotest.test_case "row path: minor words per pinned object, charges exact"
      `Quick test_row_path_budget;
  ]
