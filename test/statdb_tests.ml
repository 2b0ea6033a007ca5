(* Tests for the Figure-3 benchmark-results database. *)

open Tb_statdb

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let obs ?(numtest = 1) ?(algo = "PHJ") ?(elapsed = 1.5) () =
  {
    Stat_store.numtest;
    query_text = "select pa from pa in Patients";
    projection = "tuple";
    selectivity = 10;
    cold = true;
    database = "2000x1000";
    cluster = "class";
    algo;
    server_cache_pages = 1024;
    client_cache_pages = 8192;
    elapsed_s = elapsed;
    rpcs = 100;
    rpc_pages = 100;
    d2sc_reads = 90;
    sc2cc_reads = 100;
    cc_missrate = 12.5;
    sc_missrate = 50.0;
    cc_pagefaults = 0;
  }

let test_record_and_read_back () =
  let t = Stat_store.create () in
  for i = 1 to 20 do
    ignore (Stat_store.record t (obs ~numtest:i ~elapsed:(float_of_int i) ()))
  done;
  check_int "count" 20 (Stat_store.count t);
  let all = Stat_store.observations t in
  check_int "ordered" 1 (List.hd all).Stat_store.numtest;
  (* The Stat objects exist in the object store itself. *)
  check_int "Stat extent" 20
    (Tb_store.Database.cardinality (Stat_store.db t) ~cls:Stat_schema.stat_cls);
  check_int "Query objects" 20
    (Tb_store.Database.cardinality (Stat_store.db t) ~cls:Stat_schema.query_cls);
  (* Systems are deduplicated. *)
  check_int "one System" 1
    (Tb_store.Database.cardinality (Stat_store.db t) ~cls:Stat_schema.system_cls)

let test_oql_over_stats () =
  (* Section 3.3's payoff: "a query language can be used to extract the
     information you are looking for". *)
  let t = Stat_store.create () in
  for i = 1 to 30 do
    ignore (Stat_store.record t (obs ~numtest:i ~elapsed:(float_of_int (i * 100)) ()))
  done;
  let r =
    Stat_store.query t
      "select s.ElapsedTimeMs from s in Stats where s.numtest < 11"
  in
  check_int "10 matching stats" 10 (Tb_query.Query_result.count r);
  Tb_query.Query_result.dispose r

let test_extents_and_links () =
  let t = Stat_store.create () in
  let _prov = Stat_store.register_extent t ~classname:"Provider" ~size:2000 ~links:[] in
  let _pat =
    Stat_store.register_extent t ~classname:"Patient" ~size:2_000_000
      ~links:[ ("Provider", 1000) ]
  in
  check_bool "unknown link rejected" true
    (match
       Stat_store.register_extent t ~classname:"X" ~size:1 ~links:[ ("Nope", 1) ]
     with
    | exception Not_found -> true
    | _ -> false);
  ignore (Stat_store.record t (obs ()));
  check_int "stat recorded with extents" 1 (Stat_store.count t)

let test_csv_export () =
  let t = Stat_store.create () in
  ignore (Stat_store.record t (obs ()));
  ignore (Stat_store.record t (obs ~numtest:2 ~algo:"NL" ()));
  let csv = Stat_store.to_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + 2 rows" 3 (List.length lines);
  check_bool "algo present" true
    (List.exists (fun l -> String.length l > 2 && String.sub l 0 2 = "2,") lines)

let test_csv_round_trip () =
  (* csv_split is the exact inverse of csv_escape, field by field. *)
  let fields =
    [
      "plain";
      "has,comma";
      "has \"quotes\"";
      "comma, and \"both\"";
      "line\nbreak";
      "cr\r\nlf";
      "";
      "  spaces  ";
      "\"";
      ",";
    ]
  in
  let record = String.concat "," (List.map Stat_store.csv_escape fields) in
  Alcotest.(check (list string)) "escape/split inverse" fields
    (Stat_store.csv_split record);
  (* A query containing commas and quotes survives a full to_csv line. *)
  let t = Stat_store.create () in
  let tricky = "select [pa.name, pa.age] from pa in \"Patients\", wk in pa.kin" in
  ignore
    (Stat_store.record t { (obs ()) with Stat_store.query_text = tricky });
  let csv = Stat_store.to_csv t in
  match String.split_on_char '\n' (String.trim csv) with
  | [ header; row ] ->
      let names = Stat_store.csv_split header in
      let cells = Stat_store.csv_split row in
      check_int "row matches header" (List.length names) (List.length cells);
      check_bool "query text intact" true
        (List.exists (String.equal tricky) cells)
  | lines -> Alcotest.failf "expected 2 csv lines, got %d" (List.length lines)

let test_record_estimates () =
  let t = Stat_store.create () in
  let check q fed =
    {
      Tb_query.Exec.ec_key = "fetch/Patient";
      ec_est_ms = 100.0 *. q;
      ec_actual_ms = 100.0;
      ec_q = q;
      ec_fed_back = fed;
    }
  in
  let rids =
    Stat_store.record_estimates t ~numtest:7 [ check 1.25 false; check 3.0 true ]
  in
  check_int "two Estimate objects" 2 (List.length rids);
  check_int "Estimate extent" 2
    (Tb_store.Database.cardinality (Stat_store.db t)
       ~cls:Stat_schema.estimate_cls);
  let r =
    Stat_store.query t
      "select e.QErrorPct from e in Estimates where e.QErrorPct < 200"
  in
  check_int "queryable back" 1 (Tb_query.Query_result.count r);
  Tb_query.Query_result.dispose r

let test_gnuplot_report () =
  let t = Stat_store.create () in
  List.iter
    (fun (algo, sel, elapsed) ->
      ignore
        (Stat_store.record t
           {
             (obs ~algo ~elapsed ()) with
             Stat_store.selectivity = sel;
             numtest = sel;
           }))
    [ ("PHJ", 10, 1.0); ("PHJ", 90, 3.0); ("NL", 10, 5.0); ("NL", 90, 50.0) ];
  let dat = Stat_report.gnuplot_data t in
  check_bool "two indexed blocks" true
    (String.length dat > 0
    && List.length (String.split_on_char '#' dat) >= 4 (* 2 groups x 2 headers *));
  check_bool "data rows present" true
    (List.exists
       (fun line -> String.equal line "90  50.000")
       (String.split_on_char '\n' dat));
  let script = Stat_report.gnuplot_script ~data_file:"out.dat" t in
  check_bool "script plots both groups" true
    (List.length (String.split_on_char '\n' script) >= 5);
  let s = Stat_report.summary t in
  check_bool "summary mentions slowest" true
    (List.exists
       (fun line ->
         String.length line >= 8 && String.equal (String.sub line 0 8) "slowest:")
       (String.split_on_char '\n' s))

let suite =
  [
    Alcotest.test_case "gnuplot report" `Quick test_gnuplot_report;
    Alcotest.test_case "record and read back" `Quick test_record_and_read_back;
    Alcotest.test_case "OQL over the stats" `Quick test_oql_over_stats;
    Alcotest.test_case "extents and link ratios" `Quick test_extents_and_links;
    Alcotest.test_case "csv export" `Quick test_csv_export;
    Alcotest.test_case "csv round trip" `Quick test_csv_round_trip;
    Alcotest.test_case "record estimates" `Quick test_record_estimates;
  ]
