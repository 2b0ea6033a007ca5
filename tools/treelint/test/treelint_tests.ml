(* Treelint's own test suite: runs the engine over the fixture library (one
   deliberately violating module per rule, one clean module) and asserts the
   exact rule ids, locations and offenders; then exercises allowlist and
   baseline suppression and the TOML-subset parser.

   Runs from _build/default/tools/treelint/test; fixture cmts are next door
   and the repo libraries' cmis three levels up.  argv carries extra cmi
   directories (dune passes fmt's). *)

module Config = Treelint_config
module Diag = Treelint_diag
module Engine = Treelint_engine

let failures = ref 0

let check name cond =
  if cond then print_endline ("ok   " ^ name)
  else begin
    incr failures;
    print_endline ("FAIL " ^ name)
  end

let fixtures_dir = "fixtures/.treelint_fixtures.objs/byte"

let lib_objs =
  List.filter Sys.file_exists
    [
      "../../../lib/sim/.tb_sim.objs/byte";
      "../../../lib/storage/.tb_storage.objs/byte";
      "../../../lib/store/.tb_store.objs/byte";
      "../../../lib/query/.tb_query.objs/byte";
      "../../../lib/derby/.tb_derby.objs/byte";
      "../../../lib/oo7/.tb_oo7.objs/byte";
      "../../../lib/statdb/.tb_statdb.objs/byte";
      "../../../lib/core/.tb_core.objs/byte";
    ]

let extra_dirs =
  lib_objs @ List.map Filename.dirname (List.tl (Array.to_list Sys.argv))

let run ?(allow = []) ?(baseline = []) () =
  let config = Config.load "treelint_test.toml" in
  let config = { config with Config.allow = config.Config.allow @ allow } in
  Engine.run ~config ~baseline ~extra_dirs ~dirs:[ fixtures_dir ] ()

(* (rule, source basename, line, offender) for every expected diagnostic;
   fixture line numbers are load-bearing. *)
let expected =
  [
    ("R1", "r1_page.ml", 5, "Disk.load_page");
    ("R1", "r1_page.ml", 7, "Sim.charge_disk_read");
    ("R1", "r1_merge.ml", 4, "Sim.charge_compare");
    ("R2", "r2_shard.ml", 5, "Shard_map.count");
    ("R2", "r2_layers.ml", 4, "core.Fingerprint.collect");
    ("R2", "r2_layers.ml", 6, "Page_layout.size");
    ("R3", "r3_determinism.ml", 6, "Random.int");
    ("R3", "r3_determinism.ml", 8, "=@boxed");
    ("R3", "r3_determinism.ml", 10, "Hashtbl.hash");
    ("R3", "r3_determinism.ml", 12, "Hashtbl.create@boxed");
    ("R3", "r3_determinism.ml", 16, "Hashtbl.create@int");
    ("R3", "r3_determinism.ml", 18, "List.assoc_opt@string");
    ("R4", "r4_state.ml", 4, "forgotten");
    ("R5", "r5_unsafe.ml", 3, "Array.unsafe_get");
    ("R5", "r5_unsafe.ml", 5, "Bytes.unsafe_get");
    ("R6", "r6_shard_down.ml", 4, "Fault.Shard_down");
    ("R6", "r6_shard_down.ml", 6, "Fault.Shard_down");
    (* dataflow rules: the pre-PR-5 sorted_rids shape, a branch leak, a
       summary-transferred obligation dropped by its caller, a pin span
       broken by a raising visitor *)
    ("R7", "r7_leak.ml", 12, "simram");
    ("R7", "r7_leak.ml", 21, "handle:h");
    ("R7", "r7_leak.ml", 29, "handle:h");
    ("R7", "r7_leak.ml", 34, "handle:h");
    ("R8", "r8_taint.ml", 12, "alpha@Rng.int");
    ("R8", "r8_taint.ml", 16, "alpha->Sim.charge_compare");
    ("R8", "r8_taint.ml", 19, "?@Rng.create");
    ("R9", "r9_order.ml", 8, "Disk.load_page");
    ("R9", "r9_order.ml", 13, "Disk.load_page");
    ("R9", "r9_order.ml", 17, "Disk.persist");
  ]

let describe (r, f, l, o) = Printf.sprintf "%s %s:%d %s" r f l o

let test_fixture_diagnostics () =
  let result = run () in
  let got =
    List.map
      (fun d ->
        (d.Diag.rule, Filename.basename d.Diag.file, d.Diag.line, d.Diag.offender))
      result.Engine.diagnostics
  in
  check "fixture library scanned (18 modules)"
    (result.Engine.files_scanned = 18);
  check
    (Printf.sprintf "fixture violation count (%d, want %d)"
       result.Engine.violations (List.length expected))
    (result.Engine.violations = List.length expected);
  List.iter
    (fun e -> check ("found: " ^ describe e) (List.mem e got))
    expected;
  List.iter
    (fun g ->
      check ("no extra diagnostic: " ^ describe g) (List.mem g expected))
    got;
  check "clean.ml produced nothing"
    (not
       (List.exists
          (fun d -> Filename.basename d.Diag.file = "clean.ml")
          result.Engine.diagnostics));
  (* The r5-allowed module: same unsafe call as r5_unsafe.ml, zero
     diagnostics because "Packed" is in the allowed list. *)
  check "packed.ml is clean under the r5 allowance"
    (not
       (List.exists
          (fun d -> Filename.basename d.Diag.file = "packed.ml")
          result.Engine.diagnostics));
  (* The r1-charge-whitelisted module: the same kind of Sim.charge_ call
     r1_merge.ml is flagged for, zero diagnostics because "Exchange" is in
     charge_allowed. *)
  check "exchange.ml is clean under the r1 charge whitelist"
    (not
       (List.exists
          (fun d -> Filename.basename d.Diag.file = "exchange.ml")
          result.Engine.diagnostics));
  (* The r6-allowed module: same raise/handler as r6_shard_down.ml, zero
     diagnostics because "Failover" is in the allowed list. *)
  check "failover.ml is clean under the r6 allowance"
    (not
       (List.exists
          (fun d -> Filename.basename d.Diag.file = "failover.ml")
          result.Engine.diagnostics));
  (* The dataflow rules' disciplined counterparts: Fun.protect spans, an
     escaping-acquire helper, a catch-all reraise release, owner-module
     draws, charge-dominates-effect orderings — all must stay silent. *)
  List.iter
    (fun f ->
      check (f ^ " is clean under the dataflow rules")
        (not
           (List.exists
              (fun d -> Filename.basename d.Diag.file = f)
              result.Engine.diagnostics)))
    [ "r7_clean.ml"; "r8_clean.ml"; "r9_clean.ml" ];
  (* leaks carry a path trace (acquire -> raising call -> exit) and gate
     at error severity *)
  (match
     List.find_opt
       (fun d ->
         d.Diag.rule = "R7"
         && Filename.basename d.Diag.file = "r7_leak.ml"
         && d.Diag.line = 12)
     result.Engine.diagnostics
   with
  | None -> check "sorted_rids leak diagnostic present" false
  | Some d ->
      check "sorted_rids leak carries a dataflow trace"
        (List.length d.Diag.trace >= 2);
      check "sorted_rids leak is error severity" (d.Diag.severity = Diag.Error));
  (* deterministic output: the engine hands diagnostics back sorted *)
  check "diagnostics are sorted by file/line/col/rule/offender"
    (List.sort Diag.compare result.Engine.diagnostics
    = result.Engine.diagnostics)

let test_allowlist_member () =
  let result =
    run ~allow:[ ("R5 R5_unsafe Array.unsafe_get", "fixture exception") ] ()
  in
  check "member allow drops one violation"
    (result.Engine.violations = List.length expected - 1);
  check "member allow marks it allowlisted" (result.Engine.allowlisted = 1);
  check "allow reason is carried through"
    (List.exists
       (fun d ->
         match d.Diag.status with
         | Diag.Allowlisted r -> r = "fixture exception"
         | _ -> false)
       result.Engine.diagnostics)

let test_allowlist_module_wide () =
  let result =
    run ~allow:[ ("R3 R3_determinism", "fixture-wide exception") ] ()
  in
  check "module-wide allow suppresses all six R3 diagnostics"
    (result.Engine.allowlisted = 6
    && result.Engine.violations = List.length expected - 6)

let test_baseline () =
  let all = run () in
  let baseline =
    List.map Diag.fingerprint all.Engine.diagnostics
    |> List.sort_uniq String.compare
  in
  let result = run ~baseline () in
  check "full baseline silences every violation"
    (result.Engine.violations = 0);
  check "baselined diagnostics are still counted"
    (result.Engine.baselined = List.length expected)

(* --- R10: exports nobody needs ---

   fixtures/r10/lib is the scanned library; user/ stands in for bin/,
   bench/ and e2ebench/, tests/ for test/.  Exporter.mli holds one value
   per case; Key is a functor argument. *)

let r10_dir = "fixtures/r10"

let run_r10 () =
  let config = Config.load "treelint_test.toml" in
  Engine.run ~config ~baseline:[] ~extra_dirs
    ~dirs:[ Filename.concat r10_dir "lib" ]
    ~ref_dirs:[ Filename.concat r10_dir "user" ]
    ~test_dirs:[ Filename.concat r10_dir "tests" ]
    ()

let test_r10 () =
  let result = run_r10 () in
  let r10 =
    List.filter (fun d -> d.Diag.rule = "R10") result.Engine.diagnostics
  in
  let find path = List.find_opt (fun d -> d.Diag.offender = path) r10 in
  let kept name path =
    check ("R10 keeps a value " ^ name) (find path = None)
  in
  kept "used through a module alias" "via_alias";
  kept "used through open" "via_open";
  kept "in a nested signature" "Nested.inner";
  kept "referenced only from a user dir" "user_only";
  kept "named by a functor parameter it is passed to" "equal";
  kept "named by a functor parameter it is passed to" "hash";
  (match find "test_only" with
  | Some d ->
      check "R10 test-only value is a warning" (d.Diag.severity = Diag.Warning);
      check "R10 test-only value is reported in exporter.mli"
        (Filename.basename d.Diag.file = "exporter.mli" && d.Diag.line = 9)
  | None -> check "R10 reports the test-only value" false);
  (match find "own_only" with
  | Some d ->
      check "R10 value used only by its own module is an error"
        (d.Diag.severity = Diag.Error && d.Diag.modname = "Exporter")
  | None -> check "R10 reports the value used only by its own module" false);
  (match find "describe" with
  | Some d ->
      check "R10 functor-argument value the parameter does not name is an error"
        (d.Diag.severity = Diag.Error && d.Diag.modname = "Key")
  | None -> check "R10 reports the functor argument's unused value" false);
  check "R10 reports exactly the three findings" (List.length r10 = 3);
  (* Without the reference dirs the user-only value loses its only user
     and the test-only value its test: both become errors. *)
  let config = Config.load "treelint_test.toml" in
  let bare =
    Engine.run ~config ~baseline:[] ~extra_dirs
      ~dirs:[ Filename.concat r10_dir "lib" ]
      ()
  in
  check "R10 without reference dirs flags the user-only value"
    (List.exists
       (fun d ->
         d.Diag.rule = "R10" && d.Diag.offender = "user_only"
         && d.Diag.severity = Diag.Error)
       bare.Engine.diagnostics)

(* --- stale config names --- *)

let test_stale_names () =
  let config = Config.load "treelint_stale.toml" in
  let result =
    Engine.run ~config ~baseline:[] ~extra_dirs ~dirs:[ fixtures_dir ] ()
  in
  let stale = result.Engine.stale in
  let contains m s =
    let n = String.length s in
    let rec go i =
      i + n <= String.length m && (String.sub m i n = s || go (i + 1))
    in
    go 0
  in
  let mentions s = List.exists (fun m -> contains m s) stale in
  check "stale r7 total member is reported" (mentions "\"R7_clean.no_such_fn\"");
  check "stale r1 member prefix is reported" (mentions "\"R9_order.nope_\"");
  check "stale allow key (unknown value) is reported"
    (mentions "\"R4 R4_state forgoten\"");
  check "stale allow key (unknown module) is reported"
    (mentions "\"R5 No_such_module\"");
  check "live names are not reported" (List.length stale = 4);
  (* the CLI turns them into a config error *)
  let cmi_args =
    String.concat " "
      (List.map
         (fun d -> "--cmi " ^ Filename.quote (Filename.concat d "x.cmi"))
         extra_dirs)
  in
  let rc =
    Sys.command
      (Printf.sprintf "%s --config treelint_stale.toml %s %s 2> /dev/null > /dev/null"
         "../bin/treelint_main.exe" cmi_args fixtures_dir)
  in
  check "stale names exit 2" (rc = 2)

(* --- TOML-subset parser --- *)

let with_temp_config contents f =
  let path = Filename.temp_file ~temp_dir:"." "treelint_test" ".toml" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_toml_multiline_list () =
  with_temp_config
    "[rules.r3]\n\
     # comment with a \"quote\" and = sign\n\
     banned = [\n\
    \  \"Random.\", \"Sys.time\",  # trailing comment\n\
    \  \"Hashtbl.hash\",\n\
     ]\n"
    (fun path ->
      let c = Config.load path in
      check "multi-line list parses"
        (c.Config.r3_banned = [ "Random."; "Sys.time"; "Hashtbl.hash" ]))

let test_toml_quoted_keys_and_types () =
  with_temp_config
    "[layers]\nsim = 0\nstore = 2\n\
     [allow]\n\"R5 Btree Array.unsafe_get\" = \"bounds checked at entry\"\n"
    (fun path ->
      let c = Config.load path in
      check "integer values parse"
        (c.Config.layers = [ ("sim", 0); ("store", 2) ]);
      check "quoted allow keys parse"
        (c.Config.allow
        = [ ("R5 Btree Array.unsafe_get", "bounds checked at entry") ]))

(* --- SARIF emission --- *)

module Sarif = Treelint_sarif

let sarif_results j =
  match Sarif.mem_list j "runs" with
  | [ r ] -> Sarif.mem_list r "results"
  | _ -> []

let level_string = function
  | Diag.Error -> "error"
  | Diag.Warning -> "warning"
  | Diag.Note -> "note"

(* One SARIF result mirrors one diagnostic: rule, level, message, primary
   location, fingerprint, suppression presence, and the code-flow steps. *)
let result_matches (d : Diag.t) r =
  let primary_region =
    match Sarif.mem_list r "locations" with
    | [ l ] ->
        Option.bind (Sarif.member "physicalLocation" l) (Sarif.member "region")
    | _ -> None
  in
  let uri =
    match Sarif.mem_list r "locations" with
    | [ l ] ->
        Option.bind (Sarif.member "physicalLocation" l)
          (Sarif.member "artifactLocation")
        |> Option.map (fun a -> Sarif.mem_str a "uri")
        |> Option.join
    | _ -> None
  in
  Sarif.mem_str r "ruleId" = Some d.Diag.rule
  && Sarif.mem_str r "level" = Some (level_string d.Diag.severity)
  && (match Sarif.member "message" r with
     | Some m -> Sarif.mem_str m "text" = Some d.Diag.message
     | None -> false)
  && uri = Some d.Diag.file
  && Option.bind primary_region (fun reg -> Option.bind (Sarif.member "startLine" reg) Sarif.to_int)
     = Some (max 1 d.Diag.line)
  && (match Sarif.member "partialFingerprints" r with
     | Some pf -> Sarif.mem_str pf "treelint/v1" = Some (Diag.fingerprint d)
     | None -> false)
  && List.length (Sarif.mem_list r "suppressions")
     = (match d.Diag.status with Diag.Violation -> 0 | _ -> 1)
  &&
  let flow_steps =
    match Sarif.mem_list r "codeFlows" with
    | [ cf ] -> (
        match Sarif.mem_list cf "threadFlows" with
        | [ tf ] -> List.length (Sarif.mem_list tf "locations")
        | _ -> -1)
    | [] -> 0
    | _ -> -1
  in
  flow_steps = List.length d.Diag.trace

let test_sarif_fixture_report () =
  let result = run () in
  let s = Sarif.report result.Engine.diagnostics in
  match Sarif.parse s with
  | Error msg -> check ("sarif parses: " ^ msg) false
  | Ok j ->
      check "fixture sarif validates" (Sarif.validate j = Ok ());
      let results = sarif_results j in
      check "fixture sarif result count"
        (List.length results = List.length result.Engine.diagnostics);
      if List.length results = List.length result.Engine.diagnostics then
        check "fixture sarif results mirror the diag list"
          (List.for_all2 result_matches result.Engine.diagnostics results)

(* Property: any diagnostic list — hostile strings included — survives the
   report -> parse -> compare round trip. *)
let test_sarif_roundtrip_qcheck () =
  let open QCheck in
  let gstr = Gen.string_size ~gen:Gen.printable (Gen.int_range 0 24) in
  let gstep = Gen.quad gstr Gen.small_nat Gen.small_nat gstr in
  let gdiag =
    Gen.map
      (fun ((rule, file, line, col), (modname, offender, message), severity, (status, trace)) ->
        {
          Diag.rule;
          file;
          line;
          col;
          modname;
          offender;
          message;
          severity;
          trace;
          status;
        })
      (Gen.quad
         (Gen.quad (Gen.oneofl [ "R1"; "R3"; "R7"; "R8"; "R9" ]) gstr
            Gen.small_nat Gen.small_nat)
         (Gen.triple gstr gstr gstr)
         (Gen.oneofl [ Diag.Error; Diag.Warning; Diag.Note ])
         (Gen.pair
            (Gen.oneof
               [
                 Gen.return Diag.Violation;
                 Gen.map (fun s -> Diag.Allowlisted s) gstr;
                 Gen.return Diag.Baselined;
               ])
            (Gen.list_size (Gen.int_range 0 3) gstep)))
  in
  let arb = make (Gen.list_size (Gen.int_range 0 6) gdiag) in
  let prop diags =
    let s = Sarif.report diags in
    match Sarif.parse s with
    | Error e -> Test.fail_reportf "emitted SARIF fails to parse: %s" e
    | Ok j -> (
        match Sarif.validate j with
        | Error es ->
            Test.fail_reportf "emitted SARIF invalid: %s"
              (String.concat "; " es)
        | Ok () ->
            let results = sarif_results j in
            List.length results = List.length diags
            && List.for_all2 result_matches diags results)
  in
  let t = Test.make ~count:200 ~name:"sarif roundtrip" arb prop in
  check "sarif qcheck roundtrip"
    (match Test.check_exn t with
    | () -> true
    | exception e ->
        print_endline ("  " ^ Printexc.to_string e);
        false)

(* --- the CLI: --update-baseline rewrite order, baseline gating --- *)

let treelint_bin = "../bin/treelint_main.exe"

let run_cli args =
  let cmi_args =
    String.concat " "
      (List.map
         (fun d -> "--cmi " ^ Filename.quote (Filename.concat d "x.cmi"))
         extra_dirs)
  in
  Sys.command
    (Printf.sprintf "%s --config treelint_test.toml %s %s %s > /dev/null"
       treelint_bin cmi_args args fixtures_dir)

let test_update_baseline () =
  if not (Sys.file_exists treelint_bin) then
    check "update-baseline: treelint binary present" false
  else begin
    let baseline = Filename.temp_file ~temp_dir:"." "treelint_baseline" ".txt" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists baseline then Sys.remove baseline)
      (fun () ->
        let rc =
          run_cli
            (Printf.sprintf "--baseline %s --update-baseline"
               (Filename.quote baseline))
        in
        check "update-baseline: rewrite exits 0" (rc = 0);
        (* the rewritten file holds each violation's fingerprint once, in
           source order (the engine's deterministic diagnostic order) *)
        let all = run () in
        let seen = Hashtbl.create 64 in
        let expected_lines =
          List.filter_map
            (fun d ->
              let fp = Diag.fingerprint d in
              if Hashtbl.mem seen fp then None
              else begin
                Hashtbl.replace seen fp ();
                Some fp
              end)
            all.Engine.diagnostics
        in
        let written =
          let ic = open_in baseline in
          let rec go acc =
            match input_line ic with
            | l ->
                let l = String.trim l in
                go (if l = "" || l.[0] = '#' then acc else l :: acc)
            | exception End_of_file ->
                close_in ic;
                List.rev acc
          in
          go []
        in
        check "update-baseline: fingerprints in stable source order"
          (written = expected_lines);
        (* under the rewritten baseline every finding is grandfathered:
           the gate opens *)
        let rc2 =
          run_cli (Printf.sprintf "--baseline %s" (Filename.quote baseline))
        in
        check "update-baseline: baselined run exits 0" (rc2 = 0);
        (* without it, error-severity violations gate *)
        let rc3 = run_cli "" in
        check "violations gate with exit 1" (rc3 = 1))
  end

let expect_parse_error name contents =
  with_temp_config contents (fun path ->
      check name
        (match Config.load path with
        | _ -> false
        | exception Config.Parse_error _ -> true))

let test_toml_errors () =
  expect_parse_error "empty allow reason is rejected"
    "[allow]\n\"R1 Exec\" = \"\"\n";
  expect_parse_error "unterminated list is rejected" "[rules.r5]\nbanned = [\n";
  expect_parse_error "junk value is rejected" "[layers]\nsim = zero\n"

let () =
  test_fixture_diagnostics ();
  test_allowlist_member ();
  test_allowlist_module_wide ();
  test_baseline ();
  test_sarif_fixture_report ();
  test_sarif_roundtrip_qcheck ();
  test_update_baseline ();
  test_r10 ();
  test_stale_names ();
  test_toml_multiline_list ();
  test_toml_quoted_keys_and_types ();
  test_toml_errors ();
  if !failures > 0 then begin
    Printf.printf "treelint_tests: %d failure(s)\n" !failures;
    exit 1
  end
  else print_endline "treelint_tests: all passed"
