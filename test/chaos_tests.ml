(* The chaos harness: breaking shards on purpose, deterministically.

   An S=4, R=2 replicated build is attacked through the registry of
   per-shard fault schedules: whole-shard kills keyed to exchange-boundary
   ordinals, self-healing partitions, and transient RPC loss.  Every run
   must produce the fault-free twin's result multiset, reconcile its
   per-operator frames exactly against the global counters, and — given
   the same seed — replay the same failover decisions bit for bit.

   The default suite smokes one kill point per algorithm plus one per
   failover phase (dispatch, pre-ship, route, dest); set
   TREEBENCH_CHAOS_FULL=1 to kill every shard at every boundary across
   the full algorithm × access-path matrix. *)

open Tb_query
module Database = Tb_store.Database
module Shard_map = Tb_store.Shard_map
module Fault = Tb_storage.Fault
module Value = Tb_store.Value
module Counters = Tb_sim.Counters
module Sim = Tb_sim.Sim
module Generator = Tb_derby.Generator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let full_sweep () = Sys.getenv_opt "TREEBENCH_CHAOS_FULL" <> None

let small_cfg () =
  let scale = 1000 in
  {
    (Generator.config ~scale `Deep Generator.Class_clustered) with
    Generator.n_providers = 25;
    fanout = 4;
  }

let small_cost = Tb_sim.Cost_model.scaled 1000
let shards = 4
let reg_seed = 0xC4A05

(* One replicated build for the whole suite: [Shard_map.repair] between
   runs restores the original primaries and followers, so every kill point
   attacks the same bytes. *)
let built =
  lazy (Generator.build_sharded ~cost:small_cost ~shards ~replicas:2 (small_cfg ()))

let built_r1 =
  lazy (Generator.build_sharded ~cost:small_cost ~shards (small_cfg ()))

type cap = {
  rows : int;
  values : string list;  (* sorted rendering: the result multiset *)
  counters : string;
  clock_bits : int64;
  peak : int;
  reconciled : bool;
  lanes : Exec.lane_report;
  boundaries : int array;  (* per-shard exchange-boundary count *)
  rpc_timeouts : int;
  rpc_retries : int;
  failovers : int;
}

(* Run one query cold against [smap] under a fresh registry (same master
   seed every time — determinism is the whole point), optionally armed by
   [arm].  [registry = false] runs with no fault layer at all, the
   baseline the armed-but-quiescent run must match bit for bit. *)
let run_chaos ?(registry = true) ?(arm = fun _ -> ()) ~smap ?force_algo
    ?force_seq ?force_sorted q =
  let sim = Shard_map.sim smap in
  Shard_map.set_fault_registry smap None;
  Shard_map.repair smap;
  let reg =
    if registry then begin
      let reg = Fault.registry ~seed:reg_seed ~shards:(Shard_map.count smap) in
      Shard_map.set_fault_registry smap (Some reg);
      arm reg;
      Some reg
    end
    else None
  in
  Shard_map.cold_restart smap;
  Sim.reset sim;
  let r, root, global, lanes =
    Planner.run_sharded_explained smap q ?force_algo ?force_seq ?force_sorted
      ~keep:true
  in
  let rows = Query_result.count r in
  let values =
    List.sort compare
      (List.map (Format.asprintf "%a" Value.pp) (Query_result.values r))
  in
  Query_result.dispose r;
  let c = sim.Sim.counters in
  {
    rows;
    values;
    counters = Format.asprintf "%a" Counters.pp c;
    clock_bits = Int64.bits_of_float (Sim.elapsed_s sim);
    peak = sim.Sim.peak_working_bytes;
    reconciled = Op.reconciles ~global root;
    lanes;
    boundaries =
      (match reg with
      | None -> [||]
      | Some reg ->
          Array.init (Fault.registry_size reg) (fun s ->
              Fault.boundaries_seen (Fault.shard_fault reg s)));
    rpc_timeouts = c.Counters.rpc_timeouts;
    rpc_retries = c.Counters.rpc_retries;
    failovers = c.Counters.failovers;
  }

let sel = "select pa.age from pa in Patients where pa.mrn < 40"

let join =
  "select [p.name, pa.age] from p in Providers, pa in p.clients where pa.mrn \
   < 60 and p.upin < 15"

let algos =
  [ Plan.NL; Plan.NOJOIN; Plan.PHJ; Plan.CHJ; Plan.PHHJ; Plan.CHHJ; Plan.SMJ ]

(* name, force_algo, force_seq, force_sorted, query *)
let matrix () =
  [
    ("sel/seq", None, Some true, None, sel);
    ("sel/index", None, None, Some false, sel);
    ("sel/sorted", None, None, Some true, sel);
  ]
  @ List.concat_map
      (fun algo ->
        let n = Plan.algo_name algo in
        [
          (n ^ "/seq", Some algo, Some true, None, join);
          (n ^ "/index", Some algo, None, Some false, join);
          (n ^ "/sorted", Some algo, None, Some true, join);
        ])
      algos

(* The phase a kill at 1-based boundary [k] must fail over in: local plans
   tick twice per shard (dispatch, pre-ship), exchange plans three times
   (pre-route, post-route, pre-dest). *)
let expected_phase ~per_shard ~k =
  if per_shard = 2 then "local" else if k <= 2 then "route" else "dest"

(* Kill shard [victim] at boundary [k] and hold the run to the fault-free
   twin: same multiset, frames reconcile, exactly one recorded failover
   with the right coordinates. *)
let check_kill ~name ~baseline ~smap ?force_algo ?force_seq ?force_sorted q
    ~victim ~k =
  let cap =
    run_chaos ~smap ?force_algo ?force_seq ?force_sorted q
      ~arm:(fun reg ->
        Fault.schedule_shard_crash (Fault.shard_fault reg victim) ~at_boundary:k)
  in
  let tag = Printf.sprintf "%s kill s%d@b%d" name victim k in
  check_int (tag ^ ": rows") baseline.rows cap.rows;
  Alcotest.(check (list string))
    (tag ^ ": result multiset survives the kill")
    baseline.values cap.values;
  check_bool (tag ^ ": frames reconcile") true cap.reconciled;
  check_bool (tag ^ ": degraded") true cap.lanes.Exec.degraded;
  check_int (tag ^ ": one failover charged") 1 cap.failovers;
  match cap.lanes.Exec.failovers with
  | [ fo ] ->
      check_int (tag ^ ": failover shard") victim fo.Exec.fo_shard;
      check_int (tag ^ ": failover boundary") k fo.Exec.fo_boundary;
      check_string
        (tag ^ ": failover phase")
        (expected_phase ~per_shard:baseline.boundaries.(victim) ~k)
        fo.Exec.fo_phase;
      check_bool (tag ^ ": failover took lane time") true (fo.Exec.fo_ms > 0.0)
  | fos -> Alcotest.failf "%s: expected 1 failover, saw %d" tag (List.length fos)

(* --- armed-but-quiescent adds nothing --- *)

(* The fault machinery must be free when it does not fire: an R=2 build
   with a wired (but quiescent) registry replays the R=1 run's query-time
   charge stream bit for bit — counters, clock, peak memory.  This is the
   query-side half of the PR 7 parity promise; the S=1/R=1 golden
   fingerprint in [Invariance_tests] is the other half. *)
let test_quiescent_bit_identity () =
  let r1 = (Lazy.force built_r1).Generator.smap in
  let r2 = (Lazy.force built).Generator.smap in
  let check_q name ?force_algo ?force_seq ?force_sorted q =
    let a = run_chaos ~registry:false ~smap:r1 ?force_algo ?force_seq ?force_sorted q in
    let b = run_chaos ~smap:r2 ?force_algo ?force_seq ?force_sorted q in
    check_int (name ^ ": rows") a.rows b.rows;
    check_string (name ^ ": counters") a.counters b.counters;
    Alcotest.(check int64) (name ^ ": clock bits") a.clock_bits b.clock_bits;
    check_int (name ^ ": peak working bytes") a.peak b.peak;
    check_int (name ^ ": no timeouts") 0 b.rpc_timeouts;
    check_int (name ^ ": no failovers") 0 b.failovers
  in
  check_q "sel/seq" ~force_seq:true sel;
  check_q "sel/sorted" ~force_sorted:true sel;
  check_q "phj" ~force_algo:Plan.PHJ join;
  check_q "smj" ~force_algo:Plan.SMJ join

(* --- the kill sweep --- *)

(* Default: one first-boundary kill per algorithm, plus one kill per
   failover phase (pre-ship for a local plan, post-route and pre-dest for
   an exchange plan).  TREEBENCH_CHAOS_FULL=1: every shard × every
   boundary × the whole algorithm × access-path matrix. *)
let test_kill_sweep () =
  let smap = (Lazy.force built).Generator.smap in
  let full = full_sweep () in
  List.iter
    (fun (name, force_algo, force_seq, force_sorted, q) ->
      let baseline =
        run_chaos ~smap ?force_algo ?force_seq ?force_sorted q
      in
      check_bool (name ^ ": baseline reconciles") true baseline.reconciled;
      check_bool
        (name ^ ": boundaries ticked on every shard")
        true
        (Array.for_all (fun b -> b >= 2) baseline.boundaries);
      let kills =
        if full then
          List.concat_map
            (fun victim ->
              List.init baseline.boundaries.(victim) (fun k ->
                  (victim, k + 1)))
            (List.init shards Fun.id)
        else
          (* One kill per plan, victims strided by name.  sel/seq dies at
             its pre-ship boundary and phj/index at its deepest one, so the
             smoke still crosses all three failover phases. *)
          match name with
          | "sel/seq" -> [ (1, 2) ]
          | "phj/index" -> [ (2, baseline.boundaries.(2)) ]
          | _ -> [ (Hashtbl.hash name mod shards, 1) ]
      in
      List.iter
        (fun (victim, k) ->
          check_kill ~name ~baseline ~smap ?force_algo ?force_seq
            ?force_sorted q ~victim ~k)
        kills)
    (if full then matrix ()
     else
       (* Smoke: every algorithm once, plus the three selection paths. *)
       List.filter
         (fun (name, _, _, _, _) ->
           String.length name >= 4
           && (String.sub name 0 4 = "sel/"
              || Filename.check_suffix name "/index"))
         (matrix ()))

(* --- partitions heal without failover --- *)

let test_partition_heals () =
  let smap = (Lazy.force built).Generator.smap in
  let baseline = run_chaos ~smap ~force_seq:true sel in
  let cap =
    run_chaos ~smap ~force_seq:true sel ~arm:(fun reg ->
        Fault.schedule_partition (Fault.shard_fault reg 2) ~at_boundary:1
          ~rounds:3)
  in
  Alcotest.(check (list string))
    "partition: result multiset unchanged" baseline.values cap.values;
  check_int "partition: three timeout rounds charged" 3 cap.rpc_timeouts;
  check_int "partition: three backoff retries charged" 3 cap.rpc_retries;
  check_int "partition: no failover" 0 cap.failovers;
  check_bool "partition: not degraded" false cap.lanes.Exec.degraded;
  check_bool "partition: reconciles" true cap.reconciled;
  check_bool "partition: waiting cost is on the clock" true
    (cap.clock_bits <> baseline.clock_bits)

(* --- transient RPC loss --- *)

let test_rpc_retries () =
  let smap = (Lazy.force built).Generator.smap in
  let baseline = run_chaos ~smap ~force_algo:Plan.PHJ join in
  let cap =
    run_chaos ~smap ~force_algo:Plan.PHJ join ~arm:(fun reg ->
        Fault.iter_registry reg (fun f ->
            Fault.set_rpc_faults f ~permille:300 ~max_retries:3))
  in
  Alcotest.(check (list string))
    "rpc loss: result multiset unchanged" baseline.values cap.values;
  check_bool "rpc loss: timeouts happened" true (cap.rpc_timeouts > 0);
  check_int "rpc loss: every timeout retried" cap.rpc_timeouts cap.rpc_retries;
  check_int "rpc loss: no failover" 0 cap.failovers;
  check_bool "rpc loss: reconciles" true cap.reconciled

(* --- determinism: the same seed replays the same disaster --- *)

let test_chaos_determinism () =
  let smap = (Lazy.force built).Generator.smap in
  let attack reg =
    Fault.iter_registry reg (fun f ->
        Fault.set_rpc_faults f ~permille:250 ~max_retries:3);
    Fault.schedule_shard_crash (Fault.shard_fault reg 0) ~at_boundary:1
  in
  let once () = run_chaos ~smap ~force_algo:Plan.PHJ join ~arm:attack in
  let a = once () and b = once () in
  check_string "counters replay bit for bit" a.counters b.counters;
  Alcotest.(check int64) "clock replays bit for bit" a.clock_bits b.clock_bits;
  Alcotest.(check (list string)) "same rows" a.values b.values;
  check_int "same retry count" a.rpc_retries b.rpc_retries;
  Alcotest.(check (list string))
    "same failover decisions"
    (List.map
       (fun fo ->
         Printf.sprintf "s%d b%d %s %h" fo.Exec.fo_shard fo.Exec.fo_boundary
           fo.Exec.fo_phase fo.Exec.fo_ms)
       a.lanes.Exec.failovers)
    (List.map
       (fun fo ->
         Printf.sprintf "s%d b%d %s %h" fo.Exec.fo_shard fo.Exec.fo_boundary
           fo.Exec.fo_phase fo.Exec.fo_ms)
       b.lanes.Exec.failovers);
  check_bool "the attack actually fired" true
    (a.failovers = 1 && a.rpc_retries > 0)

(* --- promotion verification (QCheck) --- *)

let promo_schema =
  Tb_store.Schema.make
    ~classes:
      [
        {
          Tb_store.Schema.cls_name = "Patient";
          attrs =
            [
              ("name", Tb_store.Schema.TString);
              ("mrn", Tb_store.Schema.TInt);
              ("age", Tb_store.Schema.TInt);
            ];
        };
      ]
    ~roots:[ ("Patients", Tb_store.Schema.TSet (Tb_store.Schema.TRef "Patient")) ]

let promo_patient i =
  Value.Tuple
    [
      ("name", Value.String (Printf.sprintf "p%04d" i));
      ("mrn", Value.Int i);
      ("age", Value.Int (20 + (i mod 60)));
    ]

(* A two-shard, two-replica map with an empty Patients file on every
   replica; the follower of shard 0 runs [promo_batches] on its own. *)
let promo_setup () =
  let sim = Sim.create (Tb_sim.Cost_model.scaled 100) in
  let smap =
    Shard_map.create sim ~schema:promo_schema ~shards:2 ~replicas:2
      ~server_pages:32 ~client_pages:48
      ~txn_mode:Tb_store.Transaction.Standard ~key_attr:"mrn" ~seed:5 ()
  in
  Shard_map.iter_group smap (fun _ group ->
      List.iter
        (fun db ->
          let f = Database.new_file db ~name:"patients" in
          Database.bind_class db ~cls:"Patient" f)
        group);
  let follower = List.nth (Shard_map.group smap 0) 1 in
  Database.commit follower;
  (smap, follower)

(* Six committed batches of 30 inserts. *)
let promo_batches db =
  for batch = 0 to 5 do
    Database.with_txn db (fun db ->
        for i = batch * 30 to (batch * 30) + 29 do
          ignore (Database.insert_object db ~cls:"Patient" ~indexed:true
                    (promo_patient i))
        done)
  done

(* The oracle: a fault-free twin of the same workload, with the durable
   digest after every commit it reaches (commit_seq -> fingerprint), and
   the number of durable writes the whole run makes.  Taken from a twin
   rather than from the crashing run's own commit hook, because that hook
   fires only after a commit's flush: a crash after the commit record is
   forced but before the hook runs leaves a legitimate winner at a seq the
   crashing run never got to record. *)
let promo_oracle =
  lazy
    (let _, twin = promo_setup () in
     let digests = Hashtbl.create 8 in
     let record () =
       Hashtbl.replace digests (Database.commit_seq twin)
         (Database.durable_fingerprint twin)
     in
     record ();
     Database.set_commit_hook twin (Some (fun ~seq:_ -> record ()));
     let f = Fault.create ~seed:13 in
     Database.set_fault twin (Some f);
     promo_batches twin;
     (digests, Fault.writes_seen f))

(* Crash the follower's own machine mid-commit (clean or torn), then ask
   [Shard_map.promote] to install it: promotion must either refuse or
   produce a shard byte-identical to the fault-free twin at the same
   commit — never a silently corrupt primary.  Crash points beyond the
   workload's writes degenerate to promoting a clean follower, which must
   also hold. *)
let promotion_catches_damage (at_write, torn) =
  let digests, _ = Lazy.force promo_oracle in
  let smap, follower = promo_setup () in
  let f = Fault.create ~seed:13 in
  Database.set_fault follower (Some f);
  Fault.schedule_crash f ~at_write ~torn;
  (try promo_batches follower with Fault.Crash -> ());
  match Shard_map.promote smap ~shard:0 with
  | Error _ -> true (* verification refused the damaged replica *)
  | Ok db -> (
      let seq = Database.commit_seq db in
      match Hashtbl.find_opt digests seq with
      | None -> false
      | Some fp -> String.equal fp (Database.durable_fingerprint db))

let promotion_prop =
  QCheck.Test.make ~count:25
    ~name:"promotion: checksum walk catches every torn/lost page"
    QCheck.(pair (int_range 1 400) bool)
    promotion_catches_damage

(* The same check at every crash point, 1 .. writes + 1, clean and torn.
   The default pass strides through them; TREEBENCH_CHAOS_FULL=1 takes
   every one. *)
let test_promotion_sweep () =
  let _, writes = Lazy.force promo_oracle in
  check_bool "the workload writes" true (writes > 0);
  let stride = if full_sweep () then 1 else 3 in
  let at_write = ref 1 in
  while !at_write <= writes + 1 do
    List.iter
      (fun torn ->
        check_bool
          (Printf.sprintf "crash at write %d%s" !at_write
             (if torn then " (torn)" else ""))
          true
          (promotion_catches_damage (!at_write, torn)))
      [ false; true ];
    at_write := !at_write + stride
  done

(* Exhausting the replicas is an error, not a wrong answer. *)
let test_unrecoverable () =
  let smap = (Lazy.force built).Generator.smap in
  Shard_map.set_fault_registry smap None;
  Shard_map.repair smap;
  let reg = Fault.registry ~seed:reg_seed ~shards in
  Shard_map.set_fault_registry smap (Some reg);
  check_int "R=2: one follower standing" 2 (Shard_map.live_replicas smap 1);
  (match Shard_map.promote smap ~shard:1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "healthy follower refused: %s" e);
  check_int "after promote: primary only" 1 (Shard_map.live_replicas smap 1);
  (match Shard_map.promote smap ~shard:1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "promoted a replica that does not exist");
  Shard_map.set_fault_registry smap None;
  Shard_map.repair smap

let suite =
  [
    Alcotest.test_case "quiescent faults add zero charges (R=2 = R=1)" `Quick
      test_quiescent_bit_identity;
    Alcotest.test_case "kill sweep: every death yields the fault-free answer"
      `Slow test_kill_sweep;
    Alcotest.test_case "partition: heals by itself, charged wait" `Quick
      test_partition_heals;
    Alcotest.test_case "rpc loss: retried with backoff, same answer" `Quick
      test_rpc_retries;
    Alcotest.test_case "determinism: one seed, one disaster" `Quick
      test_chaos_determinism;
    QCheck_alcotest.to_alcotest promotion_prop;
    Alcotest.test_case "promotion: every crash point, clean and torn" `Quick
      test_promotion_sweep;
    Alcotest.test_case "promotion: refuses when no replica remains" `Quick
      test_unrecoverable;
  ]
