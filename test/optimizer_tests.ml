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
  Alcotest.(check (float 0.0)) "no pages" 0.0 (dp ~n:50.0 ~pages:0.0 ());
  Alcotest.(check (float 0.0)) "no rows" 0.0 (dp ~n:0.0 ~pages:10.0 ());
  Alcotest.(check (float 0.0)) "negative rows" 0.0 (dp ~n:(-3.0) ~pages:10.0 ());
  Alcotest.(check (float 0.0)) "negative pages" 0.0 (dp ~n:5.0 ~pages:(-1.0) ());
  (* Fetching every row saturates at exactly the extent size — the
     unclamped formula would leave pages*(1-1/e) at the boundary. *)
  Alcotest.(check (float 0.0)) "full extent saturates" 10.0
    (dp ~rows_per_page:10.0 ~n:100.0 ~pages:10.0 ());
  Alcotest.(check (float 0.0)) "overfull extent still saturates" 10.0
    (dp ~rows_per_page:10.0 ~n:1000.0 ~pages:10.0 ());
  check_bool "one short of full stays under" true
    (dp ~rows_per_page:10.0 ~n:99.0 ~pages:10.0 () < 10.0);
  (* Without a rows-per-page hint the curve approaches but never reaches
     the extent. *)
  let near = dp ~n:1000.0 ~pages:100.0 () in
  check_bool "default hint never saturates" true (near < 100.0 && near > 99.9);
  (* Monotone in n, and never above min(n, pages). *)
  let prev = ref 0.0 in
  for n = 1 to 50 do
    let d = dp ~rows_per_page:10.0 ~n:(float_of_int n) ~pages:20.0 () in
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
  ]
