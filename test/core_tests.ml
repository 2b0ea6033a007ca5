(* Integration tests: miniature versions of the paper's figures, asserting
   the qualitative orderings the paper reports. *)

open Tb_core
module Generator = Tb_derby.Generator
module Plan = Tb_query.Plan

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A context small enough for tests: 1/200 of the paper. *)
let ctx () = Figures.create ~scale:200

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let join_time b algo ~sel_pat ~sel_prov =
  let nc = Array.length b.Generator.patients in
  let np = Array.length b.Generator.providers in
  let q =
    Printf.sprintf
      "select [p.name, pa.age] from p in Providers, pa in p.clients where \
       pa.mrn < %d and p.upin < %d"
      (sel_pat * nc / 100) (sel_prov * np / 100)
  in
  (Measurement.run_cold b.Generator.db q
     ~organization:(Generator.estimate_organization b.Generator.cfg)
     ~force_algo:algo ~force_sorted:true ~label:"t")
    .Measurement.elapsed_s

let build shape org scale =
  Generator.build
    ~cost:(Tb_sim.Cost_model.scaled scale)
    (Generator.config ~scale shape org)

let test_fig11_shape () =
  (* Wide shape, class clustering, 10/10: hash joins and NOJOIN are close,
     NL is an order of magnitude off (Figure 11 row 1). *)
  let b = build `Wide Generator.Class_clustered 100 in
  let nl = join_time b Plan.NL ~sel_pat:10 ~sel_prov:10 in
  let phj = join_time b Plan.PHJ ~sel_pat:10 ~sel_prov:10 in
  let nojoin = join_time b Plan.NOJOIN ~sel_pat:10 ~sel_prov:10 in
  check_bool "NL dreadful" true (nl > 4.0 *. phj);
  check_bool "NOJOIN comparable to hash" true (nojoin < 2.0 *. phj)

let test_fig12_shape () =
  (* Deep shape, class clustering, 10/10: navigation falls behind the hash
     joins by a large factor (Figure 12 row 1). *)
  let b = build `Deep Generator.Class_clustered 100 in
  let phj = join_time b Plan.PHJ ~sel_pat:10 ~sel_prov:10 in
  let chj = join_time b Plan.CHJ ~sel_pat:10 ~sel_prov:10 in
  let nojoin = join_time b Plan.NOJOIN ~sel_pat:10 ~sel_prov:10 in
  let nl = join_time b Plan.NL ~sel_pat:10 ~sel_prov:10 in
  check_bool "PHJ ~ CHJ" true (Float.max phj chj /. Float.min phj chj < 2.0);
  check_bool "NOJOIN far behind" true (nojoin > 3.0 *. phj);
  check_bool "NL worst" true (nl > nojoin)

let test_fig13_shape () =
  (* Composition clustering: NL wins by a wide margin (Figure 13). *)
  let b = build `Wide Generator.Composition 100 in
  let nl = join_time b Plan.NL ~sel_pat:10 ~sel_prov:10 in
  let phj = join_time b Plan.PHJ ~sel_pat:10 ~sel_prov:10 in
  check_bool "NL wins under composition" true (nl < phj /. 2.0)

let test_fig14_90_90_memory_inversion () =
  (* Deep shape at 90/90: the hash tables outgrow memory and navigation
     takes over (Figure 12/14's 90/90 rows). *)
  let b = build `Deep Generator.Class_clustered 100 in
  let nojoin = join_time b Plan.NOJOIN ~sel_pat:90 ~sel_prov:90 in
  let chj = join_time b Plan.CHJ ~sel_pat:90 ~sel_prov:90 in
  check_bool "CHJ collapses at 90/90" true (chj > nojoin)

let test_composition_beats_class_for_navigation () =
  let cc = build `Deep Generator.Class_clustered 150 in
  let comp = build `Deep Generator.Composition 150 in
  let t_cc = join_time cc Plan.NL ~sel_pat:10 ~sel_prov:10 in
  let t_comp = join_time comp Plan.NL ~sel_pat:10 ~sel_prov:10 in
  check_bool "composition accelerates NL" true (t_comp < t_cc /. 2.0)

let test_assoc_ordered_is_both_worlds () =
  (* Section 5.3's claim: assoc-ordered keeps NL fast (like composition)
     and keeps hash joins fast (like class clustering). *)
  let scale = 150 in
  let cc = build `Deep Generator.Class_clustered scale in
  let comp = build `Deep Generator.Composition scale in
  let assoc = build `Deep Generator.Assoc_ordered scale in
  let nl_assoc = join_time assoc Plan.NL ~sel_pat:90 ~sel_prov:10 in
  let nl_cc = join_time cc Plan.NL ~sel_pat:90 ~sel_prov:10 in
  let phj_assoc = join_time assoc Plan.PHJ ~sel_pat:90 ~sel_prov:10 in
  let phj_comp = join_time comp Plan.PHJ ~sel_pat:90 ~sel_prov:10 in
  check_bool "assoc NL much faster than class NL" true (nl_assoc < nl_cc /. 2.0);
  check_bool "assoc PHJ no slower than composition PHJ" true
    (phj_assoc <= phj_comp *. 1.1)

let test_figures_run_and_record () =
  (* The figure drivers run end to end and record observations. *)
  let ctx = ctx () in
  Figures.by_name "fig7" ctx null_ppf;
  Figures.by_name "fig9" ctx null_ppf;
  check_bool "observations recorded" true
    (Tb_statdb.Stat_store.count (Figures.stats ctx) >= 10);
  (* And the recorded stats answer OQL. *)
  let r =
    Tb_statdb.Stat_store.query (Figures.stats ctx)
      "select s.algo from s in Stats where s.numtest < 3"
  in
  check_int "queryable" 2 (Tb_query.Query_result.count r);
  Tb_query.Query_result.dispose r

let test_by_name_total () =
  List.iter
    (fun name ->
      let (_ : Figures.ctx -> Format.formatter -> unit) = Figures.by_name name in
      ())
    Figures.names;
  check_bool "unknown rejected" true
    (match Figures.by_name "nope" with
    | exception Not_found -> true
    | (_ : Figures.ctx -> Format.formatter -> unit) -> false)

let test_measurement_is_cold () =
  let b = build `Deep Generator.Class_clustered 500 in
  let q = "select pa.age from pa in Patients where pa.num < 100" in
  let m1 = Measurement.run_cold b.Generator.db q ~label:"a" in
  let m2 = Measurement.run_cold b.Generator.db q ~label:"b" in
  (* Cold protocol: identical runs give identical simulated results. *)
  Alcotest.(check (float 1e-9))
    "deterministic cold runs" m1.Measurement.elapsed_s m2.Measurement.elapsed_s;
  check_int "same reads" m1.Measurement.disk_reads m2.Measurement.disk_reads;
  check_bool "actually touched the disk" true (m1.Measurement.disk_reads > 0)

let suite =
  [
    Alcotest.test_case "fig11 shape" `Slow test_fig11_shape;
    Alcotest.test_case "fig12 shape" `Slow test_fig12_shape;
    Alcotest.test_case "fig13 shape" `Slow test_fig13_shape;
    Alcotest.test_case "fig12/14 90/90 memory inversion" `Slow
      test_fig14_90_90_memory_inversion;
    Alcotest.test_case "composition accelerates navigation" `Slow
      test_composition_beats_class_for_navigation;
    Alcotest.test_case "assoc-ordered gets both worlds" `Slow
      test_assoc_ordered_is_both_worlds;
    Alcotest.test_case "figure drivers record stats" `Slow
      test_figures_run_and_record;
    Alcotest.test_case "figure registry" `Quick test_by_name_total;
    Alcotest.test_case "cold measurements are deterministic" `Quick
      test_measurement_is_cold;
  ]
