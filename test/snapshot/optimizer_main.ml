(* Optimizer-choice snapshots: for every selectivity of the paper's Figure
   6 sweep, the plan the four-stage pipeline picks, its top-3 candidate
   costs, and the verdict within Figure 6's own two-way menu (unsorted
   unclustered index vs sequential scan) — the crossover rediscovered from
   catalog statistics alone, with the switch point pinned at the bottom.
   A second section pins the sharded-vs-unsharded break-even.  A third
   pins [Planner.plan]'s own choices with no force and with only
   [force_algo]: the Figure 6 sweep, the Figure 11-14 cells on both shapes
   and organizations, and the query shapes e2ebench plans unforced.  All
   costs are simulated ms, so the output is deterministic; `dune promote`
   records intentional changes. *)

open Tb_query
module Generator = Tb_derby.Generator
module Sc = Tb_statcore.Stat_catalog

let sweep = [ 1; 10; 50; 100; 300; 600; 900 ]

let wide40 () =
  Generator.build
    ~cost:(Tb_sim.Cost_model.scaled 40)
    (Generator.config ~scale:40 `Wide Generator.Class_clustered)

let selection_query b permille =
  let k = permille * Array.length b.Generator.patients / 1000 in
  Printf.sprintf "select pa.age from pa in Patients where pa.num < %d" k

let plan_line label ?organization ?force_algo db oql =
  Format.printf "  %-22s %a@." label Plan.pp
    (Planner.plan ?organization ?force_algo db (Oql_parser.parse oql))

let join_text b ~sel_pat ~sel_prov =
  let k1 = sel_pat * Array.length b.Generator.patients / 100 in
  let k2 = sel_prov * Array.length b.Generator.providers / 100 in
  Printf.sprintf
    "select [p.name, pa.age] from p in Providers, pa in p.clients where \
     pa.mrn < %d and p.upin < %d"
    k1 k2

(* One join cell: unforced under the default (file-derived) and the
   declared organization, then every algorithm forced alone. *)
let join_cell b (sel_pat, sel_prov) =
  let db = b.Generator.db in
  let oql = join_text b ~sel_pat ~sel_prov in
  Format.printf "--- %d/%d@." sel_pat sel_prov;
  plan_line "unforced" db oql;
  plan_line "declared organization"
    ~organization:(Generator.estimate_organization b.Generator.cfg)
    db oql;
  List.iter
    (fun algo ->
      plan_line ("force " ^ Plan.algo_name algo) ~force_algo:algo db oql)
    Estimate.all_algos

let candidate_cost d desc =
  List.find_opt
    (fun ch -> String.equal (Planner.ch_desc ch) desc)
    d.Planner.d_candidates

let () =
  let b = wide40 () in
  let db = b.Generator.db in
  let stats = Sc.analyze db in
  Format.printf
    "=== optimizer sweep: selection on Patients.num (wide, 1/40 scale) ===@.";
  let switch = ref 0 in
  List.iter
    (fun permille ->
      let d = Planner.optimize ~stats db (selection_query b permille) in
      Format.printf "--- sel %.1f%%: chose %s (est %.3f ms)@."
        (float_of_int permille /. 10.0)
        (Planner.d_desc d) d.Planner.d_cost_ms;
      Format.printf "    plan: %a@." Plan.pp d.Planner.d_plan;
      List.iteri
        (fun i ch ->
          if i < 3 then
            Format.printf "    #%d %-20s %14.3f ms@." (i + 1)
              (Planner.ch_desc ch) ch.Planner.ch_cost_ms)
        d.Planner.d_candidates;
      match (candidate_cost d "index", candidate_cost d "seq") with
      | Some ix, Some sq ->
          let ix_ms = ix.Planner.ch_cost_ms and sq_ms = sq.Planner.ch_cost_ms in
          if ix_ms > sq_ms && !switch = 0 then switch := permille;
          Format.printf
            "    fig6 menu: unsorted index %.3f ms vs scan %.3f ms -> %s@."
            ix_ms sq_ms
            (if ix_ms <= sq_ms then "index wins" else "index loses")
      | _ -> Format.printf "    fig6 menu: candidate missing@.")
    sweep;
  (if !switch = 0 then
     Format.printf "switch point: the unsorted index never loses in the sweep@."
   else
     Format.printf
       "switch point: scan first beats the unsorted index at %.1f%% selectivity@."
       (float_of_int !switch /. 10.0));
  (* --- sharded break-even, from statistics alone --- *)
  Format.printf "@.=== sharded break-even (wide, 1/40 scale, 4 shards) ===@.";
  let bs =
    Generator.build_sharded
      ~cost:(Tb_sim.Cost_model.scaled 40)
      ~shards:4
      (Generator.config ~scale:40 `Wide Generator.Class_clustered)
  in
  let smap = bs.Generator.smap in
  let show title oql =
    let sd = Planner.optimize_sharded smap oql in
    Format.printf
      "%-24s chose %s: unsharded %.3f ms vs sharded %.3f ms -> %s@." title
      (Planner.d_desc sd.Planner.sd_decision) sd.Planner.sd_unsharded_ms
      sd.Planner.sd_sharded_ms
      (if sd.Planner.sd_use_sharded then "shard it" else "stay single-node");
    sd.Planner.sd_use_sharded
  in
  (* Tiny point lookups should stay single-node (the Gather RPCs cost more
     than the work they spread); bulk work should shard.  Pin where the
     statistics put the flip. *)
  let break_even = ref 0 in
  List.iter
    (fun k ->
      let sharded =
        show
          (Printf.sprintf "selection num < %d" k)
          (Printf.sprintf
             "select pa.age from pa in Patients where pa.num < %d" k)
      in
      if sharded && !break_even = 0 then break_even := k)
    [ 1; 5; 25; 250; 2500; 25000 ];
  (if !break_even = 0 then
     Format.printf "break-even: sharding never pays off in the sweep@."
   else
     Format.printf
       "break-even: sharding first pays off at num < %d (%.3f%% selectivity)@."
       !break_even
       (float_of_int !break_even /. 500.0));
  ignore
    (show "hierarchical join"
       "select [p.name, pa.age] from p in Providers, pa in p.clients where \
        pa.num < 5000 and p.upin < 500")
;;

(* --- Planner.plan with no force, or with only the algorithm forced --- *)
let () =
  let scaled shape org =
    Generator.build
      ~cost:(Tb_sim.Cost_model.scaled 40)
      (Generator.config ~scale:40 shape org)
  in
  let b = wide40 () in
  Format.printf "@.=== plan: Figure 6 sweep, unforced (wide, 1/40 scale) ===@.";
  List.iter
    (fun permille ->
      plan_line
        (Printf.sprintf "sel %.1f%%" (float_of_int permille /. 10.0))
        b.Generator.db (selection_query b permille))
    sweep;
  List.iter
    (fun (shape, org, title) ->
      Format.printf "@.=== plan: %s cells (1/40 scale) ===@." title;
      let b =
        if shape = `Wide && org = Generator.Class_clustered then b
        else scaled shape org
      in
      List.iter (join_cell b) [ (10, 10); (10, 90); (90, 10); (90, 90) ])
    [
      (`Wide, Generator.Class_clustered, "Figure 11 (wide, class)");
      (`Deep, Generator.Class_clustered, "Figure 12 (deep, class)");
      (`Wide, Generator.Composition, "Figure 13 (wide, composition)");
      (`Deep, Generator.Composition, "Figure 14 (deep, composition)");
    ];
  (* e2ebench's unforced shapes, on its deep class-clustered database. *)
  let b = scaled `Deep Generator.Class_clustered in
  let db = b.Generator.db in
  let n = Array.length b.Generator.patients in
  Format.printf "@.=== plan: e2ebench shapes (deep, class, 1/40 scale) ===@.";
  plan_line "count 50%" db
    (Printf.sprintf "select count(pa) from pa in Patients where pa.num < %d"
       (n / 2));
  List.iter
    (fun k ->
      plan_line (Printf.sprintf "point num = %d" k) db
        (Printf.sprintf
           "select [pa.mrn, pa.age] from pa in Patients where pa.num = %d" k))
    [ 0; 7; n / 2; n - 1 ];
  List.iter
    (fun k ->
      plan_line (Printf.sprintf "count num < %d" k) db
        (Printf.sprintf "select count(pa) from pa in Patients where pa.num < %d" k))
    [ 1; 2; 10; 100; n / 200; n / 100 ];
  (* Several conjuncts: the most selective indexable one drives the scan. *)
  List.iter
    (fun where ->
      plan_line where db ("select pa.age from pa in Patients where " ^ where))
    [
      "pa.mrn < 7500 and pa.num < 750";
      "pa.num < 750 and pa.mrn < 7500";
      "pa.num < 750 and pa.mrn < 750";
      "pa.age < 30 and pa.num < 75000";
    ];
  plan_line "join, unindexed child" db
    "select [p.name, pa.age] from p in Providers, pa in p.clients where \
     pa.age < 30 and p.upin < 2500";
  List.iter (fun q -> join_cell b (q, q)) [ 10; 50; 90 ]
