module Generator = Tb_derby.Generator
module Database = Tb_store.Database
module Sim = Tb_sim.Sim
module Counters = Tb_sim.Counters
module Plan = Tb_query.Plan

(* The same algorithm/cell grid as Figures 11-15. *)
let algos = [ Plan.PHJ; Plan.CHJ; Plan.NOJOIN; Plan.NL ]
let cells = [ (10, 10); (10, 90); (90, 10); (90, 90) ]

(* One canonical line per measured run: every Counters field, the simulated
   clock (as raw float bits, so "identical" means bit-identical), the result
   cardinality and the simulated memory peak.  Any engine change that
   perturbs the cost model shows up as a diff against the recorded golden
   file. *)
let line ~tag db result_count =
  let sim = Database.sim db in
  let c = sim.Sim.counters in
  (* Logging/recovery activity appears as a suffix only when present, so
     fault-free measured runs (which never log: queries commit nothing)
     keep producing the exact lines the golden file pins down. *)
  let recovery =
    if
      c.Counters.wal_appends = 0 && c.Counters.redo_pages = 0
      && c.Counters.undo_pages = 0
      && c.Counters.read_retries = 0
    then ""
    else
      Printf.sprintf " wal=%d redo=%d undo=%d rr=%d" c.Counters.wal_appends
        c.Counters.redo_pages c.Counters.undo_pages c.Counters.read_retries
  in
  (* Likewise for shard-failure activity: RPC timeouts/retries and replica
     promotions only ever show up when a fault schedule fired, so the
     fault-free golden lines are untouched while a chaos run's fingerprint
     pins down the exact failover story. *)
  let chaos =
    if
      c.Counters.rpc_timeouts = 0 && c.Counters.rpc_retries = 0
      && c.Counters.failovers = 0
    then ""
    else
      Printf.sprintf " rpct=%d rpcr=%d fo=%d" c.Counters.rpc_timeouts
        c.Counters.rpc_retries c.Counters.failovers
  in
  let recovery = recovery ^ chaos in
  Printf.sprintf
    "%s | elapsed=%Lx rows=%d dr=%d dw=%d rpc=%d rpcp=%d sh=%d sm=%d ch=%d \
     cm=%d ha=%d hf=%d hh=%d ga=%d cmp=%d hi=%d hp=%d sc=%d ra=%d sw=%d \
     peak=%d%s"
    tag
    (Int64.bits_of_float (Sim.elapsed_s sim))
    result_count c.Counters.disk_reads c.Counters.disk_writes
    c.Counters.rpc_count c.Counters.rpc_pages c.Counters.server_hits
    c.Counters.server_misses c.Counters.client_hits c.Counters.client_misses
    c.Counters.handle_allocs c.Counters.handle_frees c.Counters.handle_hits
    c.Counters.get_atts c.Counters.comparisons c.Counters.hash_inserts
    c.Counters.hash_probes c.Counters.sort_comparisons
    c.Counters.result_appends c.Counters.swap_faults
    sim.Sim.peak_working_bytes recovery

(* Compact per-operator suffix: opcode:rows_out:pages_read per node in
   pre-order.  Off by default so the golden file stays byte-identical; the
   per-operator view is an opt-in refinement that pins down not just the
   totals but which operator produced them. *)
let per_op_suffix root =
  let buf = Buffer.create 64 in
  Tb_query.Op.iter
    (fun node ->
      let fr = node.Tb_query.Op.frame in
      Buffer.add_string buf
        (Printf.sprintf " %s:%d:%d"
           (Tb_query.Op.opcode node)
           fr.Tb_query.Op.rows_out fr.Tb_query.Op.pages_read))
    root;
  Buffer.contents buf

let run_cold ?(per_op = false) ?organization ?force_algo ?force_seq
    ?force_sorted ~tag db q =
  let sim = Database.sim db in
  Database.cold_restart db;
  Sim.reset sim;
  if per_op then begin
    let r, root, _global =
      Tb_query.Planner.run_explained ?organization ?force_algo ?force_seq
        ?force_sorted ~keep:false db q
    in
    let n = Tb_query.Query_result.count r in
    Tb_query.Query_result.dispose r;
    line ~tag db n ^ " ops:" ^ per_op_suffix root
  end
  else begin
    let r =
      Tb_query.Planner.run ?organization ?force_algo ?force_seq ?force_sorted
        ~keep:false db q
    in
    let n = Tb_query.Query_result.count r in
    Tb_query.Query_result.dispose r;
    line ~tag db n
  end

let selection_query (b : Generator.built) ~sel_permille =
  let k = sel_permille * Array.length b.Generator.patients / 1000 in
  Printf.sprintf "select pa.age from pa in Patients where pa.num < %d" k

let join_query (b : Generator.built) ~sel_pat ~sel_prov =
  let k1 = sel_pat * Array.length b.Generator.patients / 100 in
  let k2 = sel_prov * Array.length b.Generator.providers / 100 in
  Printf.sprintf
    "select [p.name, pa.age] from p in Providers, pa in p.clients where \
     pa.mrn < %d and p.upin < %d"
    k1 k2

let shape_name = function `Wide -> "wide" | `Deep -> "deep"

let org_name = function
  | Generator.Class_clustered -> "class"
  | Generator.Randomized -> "random"
  | Generator.Composition -> "composition"
  | Generator.Assoc_ordered -> "assoc"

let join_lines ?per_op ~scale shape org =
  let cfg = Generator.config ~scale shape org in
  let b = Generator.build ~cost:(Tb_sim.Cost_model.scaled scale) cfg in
  let organization = Generator.estimate_organization cfg in
  List.concat_map
    (fun (sel_pat, sel_prov) ->
      List.map
        (fun algo ->
          let tag =
            Printf.sprintf "join %s %s %s %d/%d" (shape_name shape)
              (org_name org) (Plan.algo_name algo) sel_pat sel_prov
          in
          run_cold ?per_op ~organization ~force_algo:algo ~force_sorted:true ~tag
            b.Generator.db
            (join_query b ~sel_pat ~sel_prov))
        algos)
    cells

(* Selections of Figures 6/7/9 on the wide class-clustered database: plain
   scan, unsorted index scan and sorted index scan across selectivities. *)
let selection_lines ?per_op ~scale () =
  let cfg = Generator.config ~scale `Wide Generator.Class_clustered in
  let b = Generator.build ~cost:(Tb_sim.Cost_model.scaled scale) cfg in
  let sel accesses =
    List.concat_map
      (fun sel_permille ->
        let q = selection_query b ~sel_permille in
        List.map
          (fun access ->
            match access with
            | `Scan ->
                run_cold ?per_op ~force_seq:true
                  ~tag:(Printf.sprintf "sel scan p=%d" sel_permille)
                  b.Generator.db q
            | `Index ->
                run_cold ?per_op ~force_sorted:false
                  ~tag:(Printf.sprintf "sel index p=%d" sel_permille)
                  b.Generator.db q
            | `Sorted ->
                run_cold ?per_op ~force_sorted:true
                  ~tag:(Printf.sprintf "sel sorted p=%d" sel_permille)
                  b.Generator.db q)
          accesses)
  in
  sel [ `Index; `Scan ] [ 1; 10; 50; 100; 300; 600; 900 ]
  @ sel [ `Sorted ] [ 100; 300; 600; 900 ]

(* The selection workload again, through the sharded engine.  At S=1 the
   tags and every byte after them must reproduce the golden file's "sel "
   lines exactly: a one-shard map is the unsharded engine by construction
   (same build charge stream, same plans, no Gather/Shard_lane nodes), and
   this is the cheap gate that pins it.  At S>1 the lines are a fingerprint
   of the partitioned physics instead. *)
let sharded_selection_lines ~shards ~scale () =
  let cfg = Generator.config ~scale `Wide Generator.Class_clustered in
  let b =
    Generator.build_sharded ~cost:(Tb_sim.Cost_model.scaled scale) ~shards cfg
  in
  let smap = b.Generator.smap in
  let sim = Tb_store.Shard_map.sim smap in
  let n_patients = Array.length b.Generator.sh_patients in
  let run_cold_sharded ?force_seq ?force_sorted ~tag q =
    Tb_store.Shard_map.cold_restart smap;
    Sim.reset sim;
    let r, _, _, _ =
      Tb_query.Planner.run_sharded_explained ?force_seq ?force_sorted ~keep:false
        smap q
    in
    let n = Tb_query.Query_result.count r in
    Tb_query.Query_result.dispose r;
    line ~tag (Tb_store.Shard_map.shard smap 0) n
  in
  let sel accesses =
    List.concat_map
      (fun sel_permille ->
        let k = sel_permille * n_patients / 1000 in
        let q =
          Printf.sprintf "select pa.age from pa in Patients where pa.num < %d"
            k
        in
        List.map
          (fun access ->
            match access with
            | `Scan ->
                run_cold_sharded ~force_seq:true
                  ~tag:(Printf.sprintf "sel scan p=%d" sel_permille)
                  q
            | `Index ->
                run_cold_sharded ~force_sorted:false
                  ~tag:(Printf.sprintf "sel index p=%d" sel_permille)
                  q
            | `Sorted ->
                run_cold_sharded ~force_sorted:true
                  ~tag:(Printf.sprintf "sel sorted p=%d" sel_permille)
                  q)
          accesses)
  in
  sel [ `Index; `Scan ] [ 1; 10; 50; 100; 300; 600; 900 ]
  @ sel [ `Sorted ] [ 100; 300; 600; 900 ]

(* The full workload behind fig6/fig7/fig9/fig11-fig15, in a fixed order.
   Each database is built, measured and dropped before the next one so peak
   RSS stays one simulated disk. *)
let collect ?per_op ~scale () =
  selection_lines ?per_op ~scale ()
  @ List.concat_map
      (fun (shape, org) -> join_lines ?per_op ~scale shape org)
      [
        (`Wide, Generator.Class_clustered);
        (`Wide, Generator.Composition);
        (`Wide, Generator.Randomized);
        (`Deep, Generator.Class_clustered);
        (`Deep, Generator.Composition);
        (`Deep, Generator.Randomized);
      ]
