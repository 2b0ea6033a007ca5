(* Tests for the four-stage optimizer pipeline: enumerate → cost → pick →
   validate, and for the estimator primitives underneath it. *)

open Tb_query
module Generator = Tb_derby.Generator
module Sc = Tb_statcore.Stat_catalog
module Database = Tb_store.Database

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- S1: Cardenas distinct-page boundaries --- *)

let test_distinct_pages_bounds () =
  let dp = Estimate.distinct_pages in
  (* Degenerate inputs touch nothing. *)
  let dp0 = dp ~rows_per_page:infinity in
  Alcotest.(check (float 0.0)) "no pages" 0.0 (dp0 ~n:50.0 ~pages:0.0);
  Alcotest.(check (float 0.0)) "no rows" 0.0 (dp0 ~n:0.0 ~pages:10.0);
  Alcotest.(check (float 0.0)) "negative rows" 0.0 (dp0 ~n:(-3.0) ~pages:10.0);
  Alcotest.(check (float 0.0)) "negative pages" 0.0 (dp0 ~n:5.0 ~pages:(-1.0));
  (* Fetching every row saturates at exactly the extent size — the
     unclamped formula would leave pages*(1-1/e) at the boundary. *)
  Alcotest.(check (float 0.0)) "full extent saturates" 10.0
    (dp ~rows_per_page:10.0 ~n:100.0 ~pages:10.0);
  Alcotest.(check (float 0.0)) "overfull extent still saturates" 10.0
    (dp ~rows_per_page:10.0 ~n:1000.0 ~pages:10.0);
  check_bool "one short of full stays under" true
    (dp ~rows_per_page:10.0 ~n:99.0 ~pages:10.0 < 10.0);
  (* Without a rows-per-page hint the curve approaches but never reaches
     the extent. *)
  let near = dp0 ~n:1000.0 ~pages:100.0 in
  check_bool "default hint never saturates" true (near < 100.0 && near > 99.9);
  (* Monotone in n, and never above min(n, pages). *)
  let prev = ref 0.0 in
  for n = 1 to 50 do
    let d = dp ~rows_per_page:10.0 ~n:(float_of_int n) ~pages:20.0 in
    check_bool "monotone" true (d >= !prev);
    check_bool "<= n" true (d <= float_of_int n +. 1e-9);
    check_bool "<= pages" true (d <= 20.0);
    prev := d
  done

(* --- shared build helpers --- *)

let built org =
  Generator.build
    ~cost:(Tb_sim.Cost_model.scaled 40)
    (Generator.config ~scale:40 `Wide org)

let actual_ms root =
  let t = ref 0.0 in
  Op.iter (fun n -> t := !t +. n.Op.frame.Op.clock.Op.ms) root;
  !t

let plan_q root =
  Op.Est.q ~est:(Estimate.plan_cost_ms root) ~actual:(actual_ms root)

(* Run one forced plan cold and return its plan-level q-error. *)
let forced_q b ?force_algo ?force_sorted ?force_seq oql =
  let db = b.Generator.db in
  let stats = Sc.analyze db in
  let organization = Generator.estimate_organization b.Generator.cfg in
  let ast = Oql_parser.parse oql in
  let plan = Planner.plan ~organization ?force_algo ?force_sorted ?force_seq db ast in
  let root = Planner.lower plan in
  Estimate.annotate ~stats ~organization root;
  Database.cold_restart db;
  let r, _totals = Exec.run_explained db root ~keep:false in
  Query_result.dispose r;
  plan_q root

(* --- S3: q-error matrix --- *)

(* Every join algorithm and every physical organization, at 1/40 scale:
   the cost model must land within [matrix_bound] of the accounted truth
   at the plan level.  The bound is documented in DESIGN.md §4l; it is the
   contract the validate stage's feedback loop then tightens to 2x. *)
let matrix_bound = 4.0

let org_name = function
  | Generator.Class_clustered -> "class"
  | Generator.Randomized -> "random"
  | Generator.Composition -> "composition"
  | Generator.Assoc_ordered -> "assoc"

let join_oql = "select [p.name, pa.age] from p in Providers, pa in p.clients where pa.num < 5000"

let test_q_error_matrix_joins () =
  List.iter
    (fun org ->
      let b = built org in
      List.iter
        (fun algo ->
          match forced_q b ~force_algo:algo join_oql with
          | q ->
              Printf.eprintf "[matrix] %-12s %-6s q=%.2f\n%!" (org_name org)
                (Plan.algo_name algo) q;
              check_bool
                (Printf.sprintf "%s/%s q %.2f <= %.1f" (org_name org)
                   (Plan.algo_name algo) q matrix_bound)
                true (q <= matrix_bound)
          | exception Plan.Unsupported _ -> ())
        Estimate.all_algos)
    [ Generator.Class_clustered; Generator.Randomized; Generator.Composition;
      Generator.Assoc_ordered ]

let test_q_error_matrix_accesses () =
  let oql = "select pa.age from pa in Patients where pa.num < 2500" in
  List.iter
    (fun org ->
      let b = built org in
      List.iter
        (fun (label, sorted, seq) ->
          let q = forced_q b ?force_sorted:sorted ?force_seq:seq oql in
          Printf.eprintf "[matrix] %-12s %-12s q=%.2f\n%!" (org_name org) label q;
          check_bool
            (Printf.sprintf "%s/%s q %.2f <= %.1f" (org_name org) label q
               matrix_bound)
            true (q <= matrix_bound))
        [
          ("seq", None, Some true);
          ("index", Some false, None);
          ("index+sort", Some true, None);
        ])
    [ Generator.Class_clustered; Generator.Randomized ]

(* --- S3: feedback convergence --- *)

let test_feedback_converges () =
  (* Composition clustering is invisible to the catalog (DESIGN.md §4l):
     the optimizer costs the shared file as randomly organized, so the
     first run mis-estimates and validate feeds corrections back.  After
     one round every operator must sit within the 2x threshold. *)
  let b = built Generator.Composition in
  let db = b.Generator.db in
  let stats = Sc.analyze db in
  let run () =
    Database.cold_restart db;
    let r, _d, _g, checks = Planner.run_optimized_explained ~stats db join_oql in
    Query_result.dispose r;
    checks
  in
  let first = run () in
  let q1 = Exec.worst_q first in
  let fed = List.exists (fun c -> c.Exec.ec_fed_back) first in
  let second = run () in
  let q2 = Exec.worst_q second in
  Printf.eprintf "[feedback] first worst q=%.2f fed_back=%b second worst q=%.2f\n%!"
    q1 fed q2;
  check_bool "first run feeds corrections back" true fed;
  check_bool "corrections recorded in catalog" true (Sc.fed_back stats > 0);
  check_bool
    (Printf.sprintf "after one round worst q %.2f <= 2.0" q2)
    true (q2 <= 2.0);
  check_bool "feedback never makes it worse" true (q2 <= q1 +. 1e-9)

(* --- tentpole: fig6 crossover rediscovered from statistics alone --- *)

let test_fig6_crossover_from_stats () =
  let b = built Generator.Class_clustered in
  let db = b.Generator.db in
  let stats = Sc.analyze db in
  let n = Array.length b.Generator.patients in
  let two_way permille =
    let d =
      Planner.optimize ~stats db
        (Printf.sprintf "select pa.age from pa in Patients where pa.num < %d"
           (permille * n / 1000))
    in
    let cost desc =
      match
        List.find_opt
          (fun ch -> String.equal (Planner.ch_desc ch) desc)
          d.Planner.d_candidates
      with
      | Some ch -> ch.Planner.ch_cost_ms
      | None -> Alcotest.failf "candidate %s missing at %d permille" desc permille
    in
    (cost "index", cost "seq")
  in
  (* Fig 6's two-way menu: the unsorted unclustered index wins at 0.1-1%
     and loses from 5% on — the same verdicts `treebench figure fig6`
     measures, recovered here without executing anything. *)
  List.iter
    (fun permille ->
      let ix, sq = two_way permille in
      check_bool (Printf.sprintf "index wins at %d permille" permille) true
        (ix < sq))
    [ 1; 10 ];
  List.iter
    (fun permille ->
      let ix, sq = two_way permille in
      check_bool (Printf.sprintf "scan wins at %d permille" permille) true
        (sq < ix))
    [ 50; 100; 300; 600; 900 ]

let test_validate_covers_every_operator () =
  let b = built Generator.Class_clustered in
  let db = b.Generator.db in
  Database.cold_restart db;
  let r, d, _g, checks =
    Planner.run_optimized_explained db
      "select pa.age from pa in Patients where pa.num < 500"
  in
  Query_result.dispose r;
  let ops = ref 0 in
  Op.iter (fun _ -> incr ops) d.Planner.d_root;
  check_int "one check per operator" !ops (List.length checks);
  check_bool "worst q sane" true (Exec.worst_q checks >= 1.0)

(* --- pick: each plan is costed once ---

   The reference lowers, annotates and costs every plan on its own, takes
   the strict-< argmin over that list (on equal cost the first enumerated
   plan wins) and a stable sort for the ranking.  [optimize] keeps only
   the winner's tree; it must return the same winner, the same cost bits,
   the same ranked list and the same estimate on every operator of the
   tree it keeps. *)

let bits = Int64.bits_of_float

let est_line n =
  match Op.Est.get n with
  | None -> Op.label n ^ " -"
  | Some e ->
      Printf.sprintf "%s %Lx %Lx %Lx %Lx" (Op.label n) (bits e.Op.est_rows)
        (bits e.Op.est_pages) (bits e.Op.est_handles) (bits e.Op.est_ms)

let est_lines root =
  let acc = ref [] in
  Op.iter (fun n -> acc := est_line n :: !acc) root;
  List.rev !acc

let ranked_line (desc, ms) = Printf.sprintf "%s %Lx" desc (bits ms)

(* Returns the reference winner's (desc, cost, root) and ranking. *)
let reference ~stats ~organization db text =
  let bound = Plan.bind db (Oql_parser.parse text) in
  let scored =
    List.map
      (fun plan ->
        let root = Planner.lower plan in
        Estimate.annotate ~stats ~organization root;
        (Enumerate.describe plan, Estimate.plan_cost_ms root, root))
      (Enumerate.candidates stats bound)
  in
  match scored with
  | [] -> Alcotest.failf "%s: empty candidate space" text
  | first :: rest ->
      let cost (_, ms, _) = ms in
      let best =
        List.fold_left (fun acc c -> if cost c < cost acc then c else acc) first rest
      in
      let ranked =
        List.map
          (fun (desc, ms, _) -> (desc, ms))
          (List.stable_sort (fun a b -> Float.compare (cost a) (cost b)) scored)
      in
      (best, ranked)

let check_identical what db (d : Planner.decision) text =
  let (desc, ms, root), ranked =
    reference ~stats:d.Planner.d_stats ~organization:d.Planner.d_organization db text
  in
  let what = what ^ ": " ^ text in
  Alcotest.(check string) (what ^ ": chosen shape") desc (Planner.d_desc d);
  Alcotest.(check int64) (what ^ ": cost bits") (bits ms) (bits d.Planner.d_cost_ms);
  Alcotest.(check (list string))
    (what ^ ": ranking")
    (List.map ranked_line ranked)
    (List.map
       (fun ch -> ranked_line (Planner.ch_desc ch, ch.Planner.ch_cost_ms))
       d.Planner.d_candidates);
  Alcotest.(check (list string))
    (what ^ ": estimates on the kept tree")
    (est_lines root) (est_lines d.Planner.d_root)

let optimized_identical what ?stats ?organization db text =
  check_identical what db (Planner.optimize ?stats ?organization db text) text

let point_texts =
  [
    "select pa.mrn from pa in Patients where pa.num = 123";
    "select pa.age from pa in Patients where pa.mrn < 3";
    "select pa.age from pa in Patients where pa.mrn >= 400 and pa.mrn < 420";
    "select count(pa) from pa in Patients where pa.num < 3 and pa.age = 20";
    "select pa.mrn from p in Providers, pa in p.clients where p.upin = 7";
  ]

let test_pick_costs_each_plan_once () =
  (* The five point-lookup classes on a retained catalog. *)
  let deep =
    Generator.build
      ~cost:(Tb_sim.Cost_model.scaled 40)
      (Generator.config ~scale:40 `Deep Generator.Class_clustered)
  in
  let db = deep.Generator.db in
  Database.analyze db;
  let stats = Sc.analyze db in
  List.iter (optimized_identical "point lookup" ~stats db) point_texts;
  (* The Figure 6 selectivity sweep. *)
  let b = built Generator.Class_clustered in
  let db = b.Generator.db in
  let stats = Sc.analyze db in
  let n = Array.length b.Generator.patients in
  List.iter
    (fun permille ->
      optimized_identical "fig6 sweep" ~stats db
        (Printf.sprintf "select pa.age from pa in Patients where pa.num < %d"
           (permille * n / 1000)))
    [ 1; 10; 50; 100; 300; 600; 900 ];
  (* Every join algorithm under every organization, default and declared. *)
  List.iter
    (fun org ->
      let b = if org = Generator.Class_clustered then b else built org in
      let db = b.Generator.db in
      let stats = Sc.analyze db in
      let d = Planner.optimize ~stats db join_oql in
      List.iter
        (fun algo ->
          check_bool
            (Printf.sprintf "%s: %s is a candidate" (org_name org) (Plan.algo_name algo))
            true
            (List.exists
               (fun ch ->
                 match ch.Planner.ch_plan with
                 | Plan.Hier_join { algo = a; _ } -> a = algo
                 | Plan.Selection _ -> false)
               d.Planner.d_candidates))
        Estimate.all_algos;
      check_identical (org_name org) db d join_oql;
      optimized_identical
        (org_name org ^ " declared")
        ~stats
        ~organization:(Generator.estimate_organization b.Generator.cfg)
        db join_oql)
    [ Generator.Class_clustered; Generator.Randomized; Generator.Composition;
      Generator.Assoc_ordered ];
  (* Corrections present: three rounds of validate feedback first. *)
  let b = built Generator.Composition in
  let db = b.Generator.db in
  let stats = Sc.analyze db in
  for _ = 1 to 3 do
    List.iter
      (fun text ->
        Database.cold_restart db;
        let r, _, _, _ = Planner.run_optimized_explained ~stats db text in
        Query_result.dispose r)
      [ join_oql; "select pa.age from pa in Patients where pa.num < 500" ]
  done;
  check_bool "feedback recorded corrections" true (Sc.fed_back stats > 0);
  List.iter
    (optimized_identical "after feedback" ~stats db)
    [ join_oql; "select pa.age from pa in Patients where pa.num < 500" ];
  (* The sharded break-even at S=4 picks from the same decision. *)
  let bs =
    Generator.build_sharded
      ~cost:(Tb_sim.Cost_model.scaled 40)
      ~shards:4
      (Generator.config ~scale:40 `Wide Generator.Class_clustered)
  in
  let smap = bs.Generator.smap in
  List.iter
    (fun text ->
      let sd = Planner.optimize_sharded smap text in
      let d = sd.Planner.sd_decision in
      check_identical "sharded S=4" (Tb_store.Shard_map.shard smap 0) d text;
      let root = Planner.lower_sharded smap d.Planner.d_plan in
      Estimate.annotate ~stats:d.Planner.d_stats ~organization:d.Planner.d_organization
        root;
      Alcotest.(check int64)
        ("sharded S=4: sharded cost bits: " ^ text)
        (bits (Estimate.plan_cost_ms root))
        (bits sd.Planner.sd_sharded_ms))
    [ "select pa.age from pa in Patients where pa.num < 20"; join_oql ]

(* --- prepared optimization on a retained catalog ---

   A retained catalog keeps one prepared entry per text and organization:
   the candidate plans and their cost programs.  Every decision must still
   be the one a from-scratch costing gives under the catalog's corrections
   of the moment, whatever ran, validated and fed back in between. *)

let prepared_db =
  lazy
    (let b =
       Generator.build
         ~cost:(Tb_sim.Cost_model.scaled 200)
         (Generator.config ~scale:200 `Deep Generator.Class_clustered)
     in
     Database.analyze b.Generator.db;
     b)

(* Five point-lookup classes and the Figure 6 sweep, each over a handful of
   constants so that a sequence of draws repeats texts. *)
let prepared_text n_patients n_providers (cls, rank) =
  let k = 1 + (rank * 37) in
  match cls with
  | 0 -> Printf.sprintf "select pa.mrn from pa in Patients where pa.num = %d" k
  | 1 -> Printf.sprintf "select pa.age from pa in Patients where pa.mrn < %d" (1 + rank)
  | 2 ->
      let a = (n_patients / 10) + k in
      Printf.sprintf
        "select pa.age from pa in Patients where pa.mrn >= %d and pa.mrn < %d" a
        (a + 1 + rank)
  | 3 ->
      Printf.sprintf
        "select count(pa) from pa in Patients where pa.num < %d and pa.age = %d"
        (1 + rank) (k mod 100)
  | 4 ->
      Printf.sprintf
        "select pa.mrn from p in Providers, pa in p.clients where p.upin = %d"
        (k mod n_providers)
  | _ ->
      let permille = List.nth [ 1; 10; 50; 100; 300; 600; 900 ] (rank mod 7) in
      Printf.sprintf "select pa.age from pa in Patients where pa.num < %d"
        (permille * n_patients / 1000)

let prepared_prop =
  QCheck.Test.make ~count:12
    ~name:"prepared: every decision equals a from-scratch costing under feedback"
    QCheck.(list_of_size (Gen.int_range 10 30) (pair (int_range 0 5) (int_range 0 5)))
    (fun draws ->
      let b = Lazy.force prepared_db in
      let db = b.Generator.db in
      let text =
        prepared_text
          (Array.length b.Generator.patients)
          (Array.length b.Generator.providers)
      in
      let stats = Sc.analyze db in
      List.iteri
        (fun i draw ->
          let text = text draw in
          let d = Planner.optimize ~stats db text in
          check_identical (Printf.sprintf "draw %d" i) db d text;
          let r, _ = Exec.run_explained db d.Planner.d_root ~keep:false in
          Query_result.dispose r;
          ignore (Exec.validate ~stats d.Planner.d_root);
          (* The closed-form path runs beside it and touches no entry. *)
          if i mod 5 = 0 then Query_result.dispose (Planner.run db text))
        draws;
      true)

(* An entry is keyed by the organization too: one join text under two
   organizations must be costed under each, never the other's. *)
let test_prepared_keys_organization () =
  let b = Lazy.force prepared_db in
  let db = b.Generator.db in
  let stats = Sc.analyze db in
  let text = "select pa.mrn from p in Providers, pa in p.clients where p.upin = 7" in
  List.iter
    (fun organization ->
      let d = Planner.optimize ~stats ?organization db text in
      let expected =
        Option.value organization ~default:Estimate.Separate_files
      in
      check_bool "the decision carries the organization asked for" true
        (d.Planner.d_organization = expected);
      check_identical "organization" db d text)
    [ None; Some Estimate.Shared_composition; Some Estimate.Assoc_clustered; None;
      Some Estimate.Shared_composition ]

(* A scaled view starts with no entry of its parent's: its extents differ,
   and so do the raw costs. *)
let test_prepared_scaled_view () =
  let b = Lazy.force prepared_db in
  let db = b.Generator.db in
  let stats = Sc.analyze db in
  let texts =
    [
      "select pa.mrn from p in Providers, pa in p.clients where p.upin = 7";
      "select pa.age from pa in Patients where pa.num < 3000";
    ]
  in
  List.iter (fun text -> check_identical "parent" db (Planner.optimize ~stats db text) text) texts;
  let view = Sc.scale stats ~shards:4 in
  List.iter
    (fun text -> check_identical "scaled view" db (Planner.optimize ~stats:view db text) text)
    texts;
  List.iter
    (fun text -> check_identical "parent again" db (Planner.optimize ~stats db text) text)
    texts

(* A decision's tree is its own: optimizing, running and validating the
   same text again touches neither the estimates nor the frames of a
   decision already handed out. *)
let test_prepared_decisions_share_no_tree () =
  let b = Lazy.force prepared_db in
  let db = b.Generator.db in
  let stats = Sc.analyze db in
  let text = "select pa.mrn from p in Providers, pa in p.clients where p.upin = 7" in
  let run d =
    let r, _ = Exec.run_explained db d.Planner.d_root ~keep:false in
    Query_result.dispose r;
    ignore (Exec.validate ~stats d.Planner.d_root)
  in
  let frame_lines root =
    let acc = ref [] in
    Op.iter
      (fun n ->
        let f = n.Op.frame in
        acc :=
          Printf.sprintf "%s rows %d/%d pages %d %Lx" (Op.label n) f.Op.rows_in
            f.Op.rows_out f.Op.pages_read (bits f.Op.clock.Op.ms)
          :: !acc)
      root;
    List.rev !acc
  in
  let first = Planner.optimize ~stats db text in
  run first;
  let ests = est_lines first.Planner.d_root and frames = frame_lines first.Planner.d_root in
  for _ = 1 to 3 do
    let again = Planner.optimize ~stats db text in
    check_bool "a new tree" true (again.Planner.d_root != first.Planner.d_root);
    Database.cold_restart db;
    run again
  done;
  check_bool "feedback moved a correction" true (Sc.fed_back stats > 0);
  Alcotest.(check (list string)) "the first decision's estimates" ests
    (est_lines first.Planner.d_root);
  Alcotest.(check (list string)) "the first decision's frames" frames
    (frame_lines first.Planner.d_root)

(* The table admits exactly [max_prepared] entries and then refuses. *)
type Sc.prepared += Probe of int

let test_prepared_cap () =
  let b = Lazy.force prepared_db in
  let stats = Sc.analyze b.Generator.db in
  let text i = "t" ^ string_of_int i in
  for i = 0 to Sc.max_prepared do
    Sc.add_prepared stats ~text:(text i) ~variant:0 (Probe i)
  done;
  for i = 0 to Sc.max_prepared - 1 do
    match Sc.find_prepared stats ~text:(text i) ~variant:0 with
    | Probe j -> check_int "the entry admitted" i j
    | _ -> Alcotest.fail "a foreign entry"
    | exception Not_found -> Alcotest.failf "entry %d of %d refused" i Sc.max_prepared
  done;
  check_bool "the entry past the cap is refused" true
    (match Sc.find_prepared stats ~text:(text Sc.max_prepared) ~variant:0 with
    | _ -> false
    | exception Not_found -> true)

(* [Stat_catalog.analyze] copies key bounds and histograms: rebuilding the
   histograms afterwards, with other buckets, moves none of its
   estimates, while a catalog taken after the rebuild sees them.  A hole
   in the mrn keys makes the bucket count matter. *)
let test_catalog_is_a_snapshot () =
  let b =
    Generator.build
      ~cost:(Tb_sim.Cost_model.scaled 400)
      (Generator.config ~scale:400 `Deep Generator.Class_clustered)
  in
  let db = b.Generator.db in
  let n = Array.length b.Generator.patients in
  for j = n / 8 to (n / 2) - 1 do
    Database.delete_object db b.Generator.patients.(j)
  done;
  Database.analyze db;
  let stats = Sc.analyze db in
  let texts =
    [
      Printf.sprintf "select pa.age from pa in Patients where pa.mrn < %d" (n / 4);
      Printf.sprintf
        "select pa.age from pa in Patients where pa.mrn >= %d and pa.mrn < %d"
        (n / 2) ((n / 2) + 200);
      "select pa.age from pa in Patients where pa.num < 777";
      "select pa.mrn from p in Providers, pa in p.clients where p.upin < 7";
    ]
  in
  let estimates stats =
    List.concat_map
      (fun text ->
        List.concat_map
          (fun plan ->
            let root = Planner.lower plan in
            Estimate.annotate ~stats root;
            est_lines root)
          (Enumerate.candidates stats (Plan.bind db (Oql_parser.parse text))))
      texts
  in
  let before = estimates stats in
  Database.analyze ~buckets:3 db;
  Alcotest.(check (list string)) "estimates after the rebuild" before (estimates stats);
  check_bool "a fresh catalog sees the new histograms" true
    (estimates (Sc.analyze db) <> before)

let suite =
  [
    Alcotest.test_case "distinct pages: boundaries" `Quick
      test_distinct_pages_bounds;
    Alcotest.test_case "q-error matrix: joins" `Slow test_q_error_matrix_joins;
    Alcotest.test_case "q-error matrix: access paths" `Slow
      test_q_error_matrix_accesses;
    Alcotest.test_case "feedback converges" `Quick test_feedback_converges;
    Alcotest.test_case "fig6 crossover from statistics" `Quick
      test_fig6_crossover_from_stats;
    Alcotest.test_case "pick: each plan costed once, decision unchanged" `Slow
      test_pick_costs_each_plan_once;
    Alcotest.test_case "validate covers every operator" `Quick
      test_validate_covers_every_operator;
    QCheck_alcotest.to_alcotest prepared_prop;
    Alcotest.test_case "prepared: keyed by organization" `Quick
      test_prepared_keys_organization;
    Alcotest.test_case "prepared: a scaled view has its own entries" `Quick
      test_prepared_scaled_view;
    Alcotest.test_case "prepared: decisions share no tree" `Quick
      test_prepared_decisions_share_no_tree;
    Alcotest.test_case "prepared: the cap admits max_prepared entries" `Quick
      test_prepared_cap;
    Alcotest.test_case "catalog: re-analyzing the database moves no estimate" `Quick
      test_catalog_is_a_snapshot;
  ]
