(* Packed/Handle charge parity: lowering with [~packed:true] and
   [~packed:false] must be observationally identical to the cost model.
   For every query in the snapshot matrix — the selection access paths and
   all seven join algorithms over each access path — a cold run on two
   identically built databases must produce the same rows, the same
   per-field counter totals, bit-identical simulated clocks and the same
   per-operator frame counters.  The packed path may only change real
   wall-clock time, never a simulated charge. *)

open Tb_query
module Database = Tb_store.Database
module Counters = Tb_sim.Counters
module Sim = Tb_sim.Sim
module Generator = Tb_derby.Generator

let check_int = Alcotest.(check int)

let small_built () =
  let scale = 1000 in
  let cfg =
    {
      (Generator.config ~scale `Deep Generator.Class_clustered) with
      Generator.n_providers = 25;
      fanout = 4;
    }
  in
  Generator.build ~cost:(Tb_sim.Cost_model.scaled scale) cfg

type capture = {
  rows : int;
  counters : string;       (* every Counters field, formatted *)
  clock_bits : int64;      (* simulated clock, compared exactly *)
  peak : int;              (* simulated memory high-water mark *)
  frames : string list;    (* per-operator counters in Op.iter order *)
}

let frame_line (fr : Op.frame) =
  Printf.sprintf "in=%d out=%d h=%d pr=%d pw=%d ga=%d cmp=%d hash=%d sort=%d b=%d"
    fr.Op.rows_in fr.Op.rows_out fr.Op.handles fr.Op.pages_read
    fr.Op.pages_written fr.Op.get_atts fr.Op.cmps fr.Op.hash_ops
    fr.Op.sort_cmps fr.Op.bytes

let capture db ~packed ?force_algo ?force_seq ?force_sorted q =
  Database.cold_restart db;
  let plan =
    Planner.plan db (Oql_parser.parse q) ?force_algo ?force_seq ?force_sorted
  in
  let root = Planner.lower ~packed plan in
  let r, _ = Exec.run_explained db root ~keep:false in
  let rows = Query_result.count r in
  Query_result.dispose r;
  let frames = ref [] in
  Op.iter (fun node -> frames := frame_line node.Op.frame :: !frames) root;
  let sim = Database.sim db in
  {
    rows;
    counters = Format.asprintf "%a" Counters.pp sim.Sim.counters;
    clock_bits = Int64.bits_of_float (Sim.elapsed_s sim);
    peak = sim.Sim.peak_working_bytes;
    frames = List.rev !frames;
  }

let test_packed_handle_parity () =
  (* Two databases built from the same seed: the query sequence runs in
     lockstep on both, so absolute clocks and peaks compare exactly. *)
  let db_packed = (small_built ()).Generator.db in
  let db_plain = (small_built ()).Generator.db in
  let check_q name ?force_algo ?force_seq ?force_sorted q =
    let a =
      capture db_packed ~packed:true ?force_algo ?force_seq ?force_sorted q
    in
    let b =
      capture db_plain ~packed:false ?force_algo ?force_seq ?force_sorted q
    in
    check_int (name ^ ": rows") a.rows b.rows;
    Alcotest.(check string) (name ^ ": counters") b.counters a.counters;
    Alcotest.(check int64) (name ^ ": clock bits") b.clock_bits a.clock_bits;
    check_int (name ^ ": peak working bytes") b.peak a.peak;
    check_int (name ^ ": frame count") (List.length b.frames)
      (List.length a.frames);
    List.iteri
      (fun i (want, have) ->
        Alcotest.(check string)
          (Printf.sprintf "%s: frame %d" name i)
          want have)
      (List.combine b.frames a.frames)
  in
  let sel = "select pa.age from pa in Patients where pa.mrn < 40" in
  check_q "selection/seq" ~force_seq:true sel;
  check_q "selection/index" ~force_sorted:false sel;
  check_q "selection/sorted" ~force_sorted:true sel;
  check_q "selection/covering" "select pa from pa in Patients";
  check_q "selection/aggregate" "select count(pa) from pa in Patients";
  (* Non-compilable predicate: both sides lower to the Handle kernels. *)
  check_q "selection/char" ~force_seq:true
    "select pa.age from pa in Patients where pa.sex = 'F'";
  let join =
    "select [p.name, pa.age] from p in Providers, pa in p.clients where \
     pa.mrn < 60 and p.upin < 15"
  in
  List.iter
    (fun algo ->
      let name = Plan.algo_name algo in
      check_q (name ^ "/seq") ~force_algo:algo ~force_seq:true join;
      check_q (name ^ "/index") ~force_algo:algo ~force_sorted:false join;
      check_q (name ^ "/sorted") ~force_algo:algo ~force_sorted:true join)
    [ Plan.NL; Plan.NOJOIN; Plan.PHJ; Plan.CHJ; Plan.PHHJ; Plan.CHHJ; Plan.SMJ ]

let suite =
  [
    Alcotest.test_case "packed vs handle: identical charges everywhere" `Quick
      test_packed_handle_parity;
  ]
