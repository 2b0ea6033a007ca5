(* The four workloads: set-up, the seeded operation stream, and the
   harness's model of the data that every answer is checked against.

   Every workload runs the Derby 1:3 ("Deep") schema under class
   clustering.  The engine only ever receives OQL texts and values; the
   seed drives both the generator (Generator.config.seed) and the stream. *)

module Database = Tb_store.Database
module Shard_map = Tb_store.Shard_map
module Value = Tb_store.Value
module Rid = Tb_storage.Rid
module Fault = Tb_storage.Fault
module Generator = Tb_derby.Generator
module Derby = Tb_derby.Derby
module Planner = Tb_query.Planner
module Exec = Tb_query.Exec
module Op = Tb_query.Op
module Plan = Tb_query.Plan
module Query_result = Tb_query.Query_result
module Oql_parser = Tb_query.Oql_parser
module Stat_catalog = Tb_statcore.Stat_catalog

type kind = Paper_cold | Point_lookup | Sharded_failover | Update_mix

let kinds =
  [
    ("paper-cold", Paper_cold);
    ("point-lookup", Point_lookup);
    ("sharded-failover", Sharded_failover);
    ("update-mix", Update_mix);
  ]

let kind_name k = fst (List.find (fun (_, k') -> k' = k) kinds)

(* What the harness knows about the data, read back once after the build
   through Database.read_object, outside every timed region.  Indexed by
   mrn (patients) and upin (providers). *)
type model = {
  n : int;  (** patients *)
  p : int;  (** providers *)
  num : int array;
  inv_num : int array;  (** num is a permutation of 0..n-1 *)
  age : int array;
  rnd : int array;  (** random_integer *)
  upin : int array;  (** each patient's provider *)
  clients : int list array;
}

type expect =
  | Rows of int  (** result cardinality *)
  | Agg of int  (** the value of a count(...) *)
  | Ints of int list  (** single-column integer rows, as a multiset *)
  | Committed_num of int
      (** update-mix: the [mrn, age] row of num = k, as last committed *)

type query = {
  text : string;
  force_algo : Plan.join_algo option;
  force_seq : bool option;
  force_sorted : bool option;
  expect : expect;
  kill : (int * int) option;
      (** sharded-failover: (shard, exchange boundary) crashed during this
          query *)
}

type change = Swap_num of int * int | Set_age of int * int

type txn = {
  changes : change list;
  churn : bool;  (** also insert a patient and delete the previous one *)
  abort : bool;
}

type op = Query of query | Txn of txn
type target = Single of Database.t | Sharded of Shard_map.t

type t = {
  kind : kind;
  seed : int;
  target : target;
  sim : Tb_sim.Sim.t;
  model : model;
  build_s : float;
  analyze_s : float;
  stats : Stat_catalog.t option;  (** point-lookup's one retained catalog *)
  faults : Fault.registry option;  (** sharded-failover *)
  patients : Rid.t array;
  providers : Rid.t array;
  pools : (string * expect) array array;  (** point-lookup's distinct texts *)
  join_counts : (int * int, int) Hashtbl.t;
  mutable extra : Rid.t option;  (** update-mix: the live churn patient *)
  mutable churned : int;
}

(* Untimed warm-up: the first operations of block 0, about 5% of a round. *)
let warmup = function
  | Paper_cold -> 4
  | Point_lookup -> 500
  | Sharded_failover -> 4
  | Update_mix -> 40

let seconds_since t0 =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9

let timed f =
  let t0 = Monotonic_clock.now () in
  let v = f () in
  (v, seconds_since t0)

let read_model ~n ~p ~read ~upin_of =
  let num = Array.make n 0 and age = Array.make n 0 in
  let rnd = Array.make n 0 and upin = Array.make n 0 in
  for j = 0 to n - 1 do
    let v = read j in
    let int f = Value.to_int (Value.field v f) in
    if int "mrn" <> j then failwith "model: patient mrn out of order";
    num.(j) <- int "num";
    age.(j) <- int "age";
    rnd.(j) <- int "random_integer";
    upin.(j) <- upin_of j (Value.to_ref (Value.field v "primary_care_provider"))
  done;
  let inv_num = Array.make n (-1) in
  Array.iteri (fun j k -> inv_num.(k) <- j) num;
  if Array.exists (fun j -> j < 0) inv_num then failwith "model: num is not a permutation";
  let clients = Array.make p [] in
  for j = n - 1 downto 0 do
    clients.(upin.(j)) <- j :: clients.(upin.(j))
  done;
  { n; p; num; inv_num; age; rnd; upin; clients }

let rint = Random.State.int

(* A Zipf(1) rank in [0, n): the CDF is built once per pool size. *)
let zipf_cdf n =
  let w = Array.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf cdf rng =
  let u = Random.State.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = rint rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* point-lookup: five query classes, 400 seeded texts each (2,000 in all),
   drawn by class share and then by Zipf rank, so texts repeat. *)
let pool_size = 400
let class_weights = [| 30; 15; 10; 25; 20 |]

let point_pools m rng =
  let small = max 1 (m.n / 1000) in
  let pool f = Array.init pool_size (fun _ -> f ()) in
  [|
    pool (fun () ->
        let k = rint rng m.n in
        ( Printf.sprintf "select pa.mrn from pa in Patients where pa.num = %d" k,
          Ints [ m.inv_num.(k) ] ));
    pool (fun () ->
        let k = 1 + rint rng small in
        (Printf.sprintf "select pa.age from pa in Patients where pa.mrn < %d" k, Rows k));
    (* Two-sided ranges: Plan.key_range uses one conjunct, so these scan
       far more than the rows they return, and how far depends on where the
       range sits (most in the middle of the key space).  Starting every
       range 10% in keeps that cost about equal across texts, so the Zipf
       draw cannot make the tail depend on which texts rank first. *)
    pool (fun () ->
        let w = 1 + rint rng 40 in
        let a = min (m.n - w) ((m.n / 10) + rint rng pool_size) in
        ( Printf.sprintf
            "select pa.age from pa in Patients where pa.mrn >= %d and pa.mrn < %d" a
            (a + w),
          Rows w ));
    pool (fun () ->
        let k = 1 + rint rng small and a = rint rng 100 in
        let c = ref 0 in
        for v = 0 to k - 1 do
          if m.age.(m.inv_num.(v)) = a then incr c
        done;
        ( Printf.sprintf
            "select count(pa) from pa in Patients where pa.num < %d and pa.age = %d" k a,
          Agg !c ));
    pool (fun () ->
        let u = rint rng m.p in
        ( Printf.sprintf
            "select pa.mrn from p in Providers, pa in p.clients where p.upin = %d" u,
          Ints m.clients.(u) ));
  |]

let setup kind ~seed ~smoke =
  let scale = if smoke then 500 else 40 in
  let cost = Tb_sim.Cost_model.scaled scale in
  let base =
    { (Generator.config ~scale `Deep Generator.Class_clustered) with Generator.seed }
  in
  let make ~target ~sim ~model ~build_s ~analyze_s ~stats ~faults ~patients
      ~providers =
    let pools =
      if kind = Point_lookup then point_pools model (Random.State.make [| seed; -1 |])
      else [||]
    in
    {
      kind;
      seed;
      target;
      sim;
      model;
      build_s;
      analyze_s;
      stats;
      faults;
      patients;
      providers;
      pools;
      join_counts = Hashtbl.create 8;
      extra = None;
      churned = 0;
    }
  in
  match kind with
  | Sharded_failover ->
      let b, build_s =
        timed (fun () -> Generator.build_sharded ~cost ~shards:4 ~replicas:2 base)
      in
      let smap = b.Generator.smap in
      let upin_of = Hashtbl.create 4096 in
      Array.iteri
        (fun u rid -> Hashtbl.replace upin_of (b.Generator.provider_shard.(u), rid) u)
        b.Generator.sh_providers;
      let shard_of j = b.Generator.patient_shard.(j) in
      let model =
        read_model
          ~n:(Array.length b.Generator.sh_patients)
          ~p:(Array.length b.Generator.sh_providers)
          ~read:(fun j ->
            snd
              (Database.read_object
                 (Shard_map.shard smap (shard_of j))
                 b.Generator.sh_patients.(j)))
          ~upin_of:(fun j rid -> Hashtbl.find upin_of (shard_of j, rid))
      in
      let reg = Fault.registry ~seed ~shards:(Shard_map.count smap) in
      Shard_map.set_fault_registry smap (Some reg);
      Shard_map.cold_restart smap;
      let sim = Shard_map.sim smap in
      Tb_sim.Sim.reset sim;
      make ~target:(Sharded smap) ~sim ~model ~build_s ~analyze_s:0.0 ~stats:None
        ~faults:(Some reg) ~patients:b.Generator.sh_patients
        ~providers:b.Generator.sh_providers
  | Paper_cold | Point_lookup | Update_mix ->
      let cfg =
        match kind with
        | Point_lookup ->
            (* Both caches hold the whole database: the hit path. *)
            { base with Generator.server_pages = 8192; client_pages = 8192 }
        | Update_mix -> { base with Generator.txn_mode = Tb_store.Transaction.Standard }
        | Paper_cold | Sharded_failover -> base
      in
      let b, build_s = timed (fun () -> Generator.build ~cost cfg) in
      let db = b.Generator.db in
      let stats, analyze_s =
        if kind = Point_lookup then
          let s, dt =
            timed (fun () ->
                Database.analyze db;
                Stat_catalog.analyze db)
          in
          (Some s, dt)
        else (None, 0.0)
      in
      let upin_of = Hashtbl.create 4096 in
      Array.iteri (fun u rid -> Hashtbl.replace upin_of rid u) b.Generator.providers;
      let model =
        read_model
          ~n:(Array.length b.Generator.patients)
          ~p:(Array.length b.Generator.providers)
          ~read:(fun j -> snd (Database.read_object db b.Generator.patients.(j)))
          ~upin_of:(fun _ rid -> Hashtbl.find upin_of rid)
      in
      Database.cold_restart db;
      let sim = Database.sim db in
      Tb_sim.Sim.reset sim;
      make ~target:(Single db) ~sim ~model ~build_s ~analyze_s ~stats ~faults:None
        ~patients:b.Generator.patients ~providers:b.Generator.providers

(* --- the operation stream --- *)

let query ?force_algo ?force_seq ?force_sorted ?kill text expect =
  Query { text; force_algo; force_seq; force_sorted; expect; kill }

let pct n q = max 1 (n * q / 100)
let sel_text k = Printf.sprintf "select pa.age from pa in Patients where pa.num < %d" k

let join_text x y =
  Printf.sprintf
    "select [p.name, pa.age] from p in Providers, pa in p.clients where pa.mrn < \
     %d and p.upin < %d"
    x y

(* Fig 11-14 cut-offs: mrn < x and upin < y, counted naively on the model. *)
let join_query ?kill t ~q algo =
  let m = t.model in
  let x = pct m.n q and y = pct m.p q in
  let count =
    match Hashtbl.find_opt t.join_counts (x, y) with
    | Some c -> c
    | None ->
        let c = ref 0 in
        for j = 0 to x - 1 do
          if m.upin.(j) < y then incr c
        done;
        Hashtbl.replace t.join_counts (x, y) !c;
        !c
  in
  query ?kill ~force_algo:algo (join_text x y) (Rows count)

let paper_cold_block t rng =
  let n = t.model.n in
  let sels =
    List.concat_map
      (fun q ->
        let k = pct n q in
        [
          query ~force_seq:true (sel_text k) (Rows k);
          query ~force_sorted:false (sel_text k) (Rows k);
          query ~force_sorted:true (sel_text k) (Rows k);
        ])
      [ 1; 5; 10; 50; 90 ]
  in
  let count =
    query
      (Printf.sprintf "select count(pa) from pa in Patients where pa.num < %d" (n / 2))
      (Agg (n / 2))
  in
  let joins =
    List.concat_map
      (fun q -> List.map (fun algo -> join_query t ~q algo) Plan.[ NL; NOJOIN; PHJ; CHJ; PHHJ; SMJ ])
      [ 10; 50; 90 ]
  in
  let a = Array.of_list ((count :: sels) @ joins) in
  shuffle rng a;
  a

let class_cdf =
  let total = Array.fold_left ( + ) 0 class_weights in
  let acc = ref 0 in
  Array.map
    (fun w ->
      acc := !acc + w;
      float_of_int !acc /. float_of_int total)
    class_weights

let rank_cdf = lazy (zipf_cdf pool_size)

let point_lookup_block t rng =
  Array.init 500 (fun _ ->
      let cls = zipf class_cdf rng in
      let text, expect = t.pools.(cls).(zipf (Lazy.force rank_cdf) rng) in
      query text expect)

let sharded_block t rng =
  let n = t.model.n in
  let seq q = query ~force_seq:true (sel_text (pct n q)) (Rows (pct n q)) in
  let idx ~sorted q =
    query ~force_sorted:sorted (sel_text (pct n q)) (Rows (pct n q))
  in
  (* One failover per block, always in the slowest query (an exchange plan
     with three boundaries per shard): a seeded shard dies at a seeded
     boundary, so the tail is one class whose cost includes the promotion.
     Eleven queries put the median inside one of them. *)
  let failover = join_query t ~kill:(rint rng 4, 1 + rint rng 3) ~q:50 Plan.PHJ in
  let a =
    [|
      seq 10;
      seq 50;
      seq 90;
      idx ~sorted:false 1;
      idx ~sorted:false 10;
      idx ~sorted:true 10;
      idx ~sorted:true 50;
      join_query t ~q:10 Plan.NL;
      join_query t ~q:10 Plan.PHJ;
      join_query t ~q:10 Plan.CHJ;
      failover;
    |]
  in
  shuffle rng a;
  a

let update_mix_block t rng =
  let n = t.model.n in
  (* 14 point reads to 6 counts: the read median falls inside the point
     class rather than on the boundary between the two. *)
  let reads =
    Array.init 20 (fun i ->
        if i < 14 then
          let k = rint rng n in
          query
            (Printf.sprintf "select [pa.mrn, pa.age] from pa in Patients where pa.num = %d"
               k)
            (Committed_num k)
        else
          let k = 1 + rint rng (pct n 1) in
          query
            (Printf.sprintf "select count(pa) from pa in Patients where pa.num < %d" k)
            (Agg k))
  in
  shuffle rng reads;
  let churn_at = rint rng 20 in
  let abort1 = rint rng 20 in
  let abort2 = (abort1 + 1 + rint rng 19) mod 20 in
  let change c =
    if c mod 2 = 0 then
      let i = rint rng n in
      Swap_num (i, (i + 1 + rint rng (n - 1)) mod n)
    else Set_age (rint rng n, rint rng 100)
  in
  Array.init 40 (fun i ->
      if i mod 2 = 0 then reads.(i / 2)
      else
        let k = i / 2 in
        Txn
          {
            changes = List.init 10 change;
            churn = k = churn_at;
            abort = k = abort1 || k = abort2;
          })

(* Block [b] of the stream depends only on the seed, the workload and [b].
   Each block holds the whole mix (paper-cold's 34 queries, the eleven
   sharded queries with their one failover, update-mix's 20 reads and 20
   transactions, 500 point-lookup draws), so cutting a run at a block
   boundary never skews the mix. *)
let block t b =
  let rng = Random.State.make [| t.seed; Hashtbl.hash (kind_name t.kind); b |] in
  match t.kind with
  | Paper_cold -> paper_cold_block t rng
  | Point_lookup -> point_lookup_block t rng
  | Sharded_failover -> sharded_block t rng
  | Update_mix -> update_mix_block t rng

(* --- execution --- *)

(* What a query left behind for the untimed check. *)
type done_query = {
  result : Query_result.t;
  root : Op.t option;  (** the executed tree, when the path exposes it *)
  decision : Planner.decision option;
  est_checks : Exec.est_check list;
  lanes : Exec.lane_report option;
}

let span = Span.span

(* Untraced, each query goes through the public entry point a treebench
   caller uses; traced, through the calls that entry point makes, each in
   its own span. *)
let run_query t tr q =
  let keep = match q.expect with Rows _ | Agg _ -> false | Ints _ | Committed_num _ -> true in
  let parse () = span tr "oql_parser.parse" (fun () -> Oql_parser.parse q.text) in
  let plan db ast =
    span tr "planner.plan" (fun () ->
        Planner.plan ?force_algo:q.force_algo ?force_seq:q.force_seq
          ?force_sorted:q.force_sorted db ast)
  in
  let plain result =
    { result; root = None; decision = None; est_checks = []; lanes = None }
  in
  match t.target with
  | Single db when t.kind = Point_lookup ->
      let stats = Option.get t.stats in
      let result, d, est_checks =
        if tr = None then
          let r, d, _, checks = Planner.run_optimized_explained ~stats ~keep db q.text in
          (r, d, checks)
        else
          let d = span tr "planner.optimize" (fun () -> Planner.optimize ~stats db q.text) in
          let r, _ =
            span tr "exec.run" (fun () -> Exec.run_explained db d.Planner.d_root ~keep)
          in
          let checks =
            span tr "exec.validate" (fun () ->
                Exec.validate ~stats:d.Planner.d_stats d.Planner.d_root)
          in
          (r, d, checks)
      in
      { result; root = Some d.Planner.d_root; decision = Some d; est_checks; lanes = None }
  | Single db ->
      if t.kind = Paper_cold then
        span tr "database.cold_restart" (fun () -> Database.cold_restart db);
      if tr = None then
        plain
          (Planner.run ?force_algo:q.force_algo ?force_seq:q.force_seq
             ?force_sorted:q.force_sorted ~keep db q.text)
      else
        let p = plan db (parse ()) in
        let root = span tr "planner.lower" (fun () -> Planner.lower p) in
        { (plain (span tr "exec.run" (fun () -> Exec.run db root ~keep))) with root = Some root }
  | Sharded smap ->
      span tr "shard_map.repair" (fun () -> Shard_map.repair smap);
      (match (q.kill, t.faults) with
      | Some (shard, boundary), Some reg ->
          Fault.schedule_shard_crash (Fault.shard_fault reg shard) ~at_boundary:boundary
      | _ -> ());
      let result, root, lanes =
        if tr = None then
          let r, root, _, lanes =
            Planner.run_sharded_explained ?force_algo:q.force_algo ?force_seq:q.force_seq
              ?force_sorted:q.force_sorted ~keep smap q.text
          in
          (r, root, lanes)
        else
          let p = plan (Shard_map.shard smap 0) (parse ()) in
          let root = span tr "planner.lower" (fun () -> Planner.lower_sharded smap p) in
          let r, _, lanes =
            span tr "exec.run" (fun () -> Exec.run_sharded_explained smap root ~keep)
          in
          (r, root, lanes)
      in
      { result; root = Some root; decision = None; est_checks = []; lanes = Some lanes }

let single t = match t.target with Single db -> db | Sharded _ -> assert false

let set_num m mrn k =
  m.num.(mrn) <- k;
  m.inv_num.(k) <- mrn

let patient_value t mrn =
  let m = t.model in
  Derby.patient_value ~mrn ~age:m.age.(mrn)
    ~sex:(if mrn land 1 = 0 then 'F' else 'M')
    ~random_integer:m.rnd.(mrn) ~num:m.num.(mrn)
    ~pcp:(Value.Ref t.providers.(m.upin.(mrn)))

(* One update-mix transaction.  The model follows every change and rolls
   back with the transaction, so reads can be checked against what was
   committed. *)
let run_txn t tr x =
  let db = single t and m = t.model in
  let h = span tr "database.begin_txn" (fun () -> Database.begin_txn db) in
  let undo = ref [] in
  let revert () = List.iter (fun f -> f ()) !undo in
  let write f = span tr "database.write" f in
  let update mrn = write (fun () -> Database.update_object db t.patients.(mrn) (patient_value t mrn)) in
  match
    List.iter
      (function
        | Swap_num (i, j) ->
            let ni = m.num.(i) and nj = m.num.(j) in
            set_num m i nj;
            set_num m j ni;
            undo := (fun () -> set_num m i ni; set_num m j nj) :: !undo;
            update i;
            update j
        | Set_age (i, a) ->
            let old = m.age.(i) in
            m.age.(i) <- a;
            undo := (fun () -> m.age.(i) <- old) :: !undo;
            update i)
      x.changes;
    if x.churn then begin
      let k = m.n + t.churned in
      t.churned <- t.churned + 1;
      let rid =
        write (fun () ->
            Database.insert_object db ~cls:Derby.patient_cls ~indexed:true
              (Derby.patient_value ~mrn:k ~age:0 ~sex:'F' ~random_integer:0 ~num:k
                 ~pcp:(Value.Ref Rid.nil)))
      in
      Option.iter (fun old -> write (fun () -> Database.delete_object db old)) t.extra;
      Some rid
    end
    else t.extra
  with
  | extra ->
      if x.abort then begin
        span tr "database.abort_txn" (fun () -> Database.abort_txn h);
        revert ()
      end
      else begin
        span tr "database.commit_txn" (fun () -> Database.commit_txn h);
        t.extra <- extra
      end
  | exception e ->
      (try Database.abort_txn h with _ -> ());
      revert ();
      raise e

(* --- answer checks (untimed) --- *)

let check_query t q d =
  let r = d.result in
  let fail fmt = Printf.ksprintf (fun s -> Some (q.text ^ ": " ^ s)) fmt in
  let ints () =
    List.sort compare
      (List.map
         (function Value.Int i -> i | _ -> min_int)
         (Query_result.values r))
  in
  let answer =
    match q.expect with
    | Rows n ->
        let c = Query_result.count r in
        if c = n then None else fail "%d rows, expected %d" c n
    | Agg n -> (
        match Query_result.values r with
        | [ Value.Int c ] when c = n -> None
        | _ -> fail "aggregate differs from %d" n)
    | Ints l ->
        if ints () = List.sort compare l then None
        else fail "rows differ from the model's %d" (List.length l)
    | Committed_num k -> (
        let mrn = t.model.inv_num.(k) in
        match Query_result.values r with
        | [ Value.Tuple [ (_, Value.Int a); (_, Value.Int b) ] ]
          when a = mrn && b = t.model.age.(mrn) ->
            None
        | _ -> fail "row differs from the committed [%d, %d]" mrn t.model.age.(mrn))
  in
  let failover =
    match d.lanes with
    | None -> None
    | Some l -> (
        match (q.kill, l.Exec.failovers) with
        | None, [] -> None
        | Some (s, b), [ fo ] when fo.Exec.fo_shard = s && fo.Exec.fo_boundary = b -> None
        | _, fos -> fail "%d failovers, expected %s" (List.length fos)
                      (if q.kill = None then "none" else "one at the armed point"))
  in
  Query_result.dispose r;
  match answer with Some _ -> answer | None -> failover

(* End of an update-mix round: a crash must recover exactly the last
   commit, and the recovered database must match the model object for
   object. *)
let check_durability t =
  let db = single t and m = t.model in
  let committed = Database.durable_fingerprint db in
  ignore (Database.crash_and_recover db);
  if Database.durable_fingerprint db <> committed then
    Some "crash_and_recover lost the last commit"
  else
    let bad = ref None in
    for j = m.n - 1 downto 0 do
      let v = snd (Database.read_object db t.patients.(j)) in
      let int f = Value.to_int (Value.field v f) in
      if int "num" <> m.num.(j) || int "age" <> m.age.(j) then
        bad := Some (Printf.sprintf "patient %d differs from the model after recovery" j)
    done;
    let expected = m.n + if t.extra = None then 0 else 1 in
    let card = Database.cardinality db ~cls:Derby.patient_cls in
    if !bad = None && card <> expected then
      Some (Printf.sprintf "%d patients after recovery, expected %d" card expected)
    else !bad

let durable_pages t =
  match t.target with
  | Single db -> Database.durable_pages db
  | Sharded smap ->
      let n = ref 0 in
      Shard_map.iter smap (fun _ db -> n := !n + Database.durable_pages db);
      !n
