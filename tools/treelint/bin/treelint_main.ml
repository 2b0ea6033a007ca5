(* treelint — static analysis over the .cmt typed ASTs dune emits.

   Usage:
     treelint --config treelint.toml [--baseline FILE] [--json FILE]
              [--sarif FILE] [--explain RULE]
              [--cmi FILE]... [--refs DIR]... [--test-refs DIR]...
              [--verbose] [--update-baseline] DIR...

   Each DIR is searched recursively for .cmt files.  When a DIR holds no
   cmts but _build/default/DIR does (the tool was launched from the source
   root rather than from inside _build), the build copy is scanned instead,
   so `dune exec tools/treelint/bin/treelint.exe -- ... lib` works as well
   as the @lint rule.  --refs and --test-refs name directories read only
   for R10's references (executables and benchmarks; tests), resolved the
   same way; R1-R9 never scan them.

   A config entry that names a scanned module but matches none of its
   values is a config error: it is printed and the exit status is 2.

   --sarif emits a SARIF 2.1.0 report (validated before writing).
   --explain RULE prints the dataflow trace under each of RULE's
   diagnostics, including allowlisted/baselined ones.
   Exit status is 1 only when an error-severity violation remains;
   warning/note-severity findings report but do not gate. *)

module Config = Treelint_config
module Diag = Treelint_diag
module Engine = Treelint_engine
module Sarif = Treelint_sarif

let read_baseline path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
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
  end

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let usage () =
  prerr_endline
    "usage: treelint --config FILE [--baseline FILE] [--json FILE] [--sarif \
     FILE] [--explain RULE] [--cmi FILE]... [--refs DIR]... [--test-refs \
     DIR]... [--verbose] [--update-baseline] DIR...";
  exit 2

let () =
  let config_path = ref "" in
  let baseline_path = ref "" in
  let json_path = ref "" in
  let sarif_path = ref "" in
  let explain = ref [] in
  let cmi_files = ref [] in
  let dirs = ref [] in
  let ref_dirs = ref [] in
  let test_dirs = ref [] in
  let verbose = ref false in
  let update_baseline = ref false in
  let rec parse = function
    | [] -> ()
    | "--config" :: v :: rest ->
        config_path := v;
        parse rest
    | "--baseline" :: v :: rest ->
        baseline_path := v;
        parse rest
    | "--json" :: v :: rest ->
        json_path := v;
        parse rest
    | "--sarif" :: v :: rest ->
        sarif_path := v;
        parse rest
    | "--explain" :: v :: rest ->
        explain := v :: !explain;
        parse rest
    | "--cmi" :: v :: rest ->
        cmi_files := v :: !cmi_files;
        parse rest
    | "--refs" :: v :: rest ->
        ref_dirs := v :: !ref_dirs;
        parse rest
    | "--test-refs" :: v :: rest ->
        test_dirs := v :: !test_dirs;
        parse rest
    | "--verbose" :: rest ->
        verbose := true;
        parse rest
    | "--update-baseline" :: rest ->
        update_baseline := true;
        parse rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
        Printf.eprintf "treelint: unknown option %s\n" arg;
        usage ()
    | dir :: rest ->
        dirs := dir :: !dirs;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !config_path = "" || !dirs = [] then usage ();
  let config =
    try Config.load !config_path
    with Config.Parse_error msg ->
      Printf.eprintf "treelint: %s: %s\n" !config_path msg;
      exit 2
  in
  let baseline =
    if !baseline_path = "" then [] else read_baseline !baseline_path
  in
  let resolve dir =
    if Engine.find_cmts dir [] <> [] then dir
    else
      let built = Filename.concat (Filename.concat "_build" "default") dir in
      if Sys.file_exists built then built else dir
  in
  let dirs = List.map resolve (List.rev !dirs) in
  let ref_dirs = List.map resolve (List.rev !ref_dirs) in
  let test_dirs = List.map resolve (List.rev !test_dirs) in
  let extra_dirs = List.map Filename.dirname !cmi_files in
  let result =
    Engine.run ~config ~baseline ~extra_dirs ~dirs ~ref_dirs ~test_dirs ()
  in
  if result.stale <> [] then begin
    List.iter
      (Printf.eprintf "treelint: %s: %s\n" !config_path)
      result.stale;
    exit 2
  end;
  let explain_wanted d = List.mem d.Diag.rule !explain in
  List.iter
    (fun d ->
      (match d.Diag.status with
      | Diag.Violation ->
          Format.printf "%a [%s]@." Diag.pp d
            (Diag.severity_string d.Diag.severity)
      | Diag.Allowlisted reason ->
          if !verbose || explain_wanted d then
            Format.printf "%a (allowlisted: %s)@." Diag.pp d reason
      | Diag.Baselined ->
          if !verbose || explain_wanted d then
            Format.printf "%a (baselined)@." Diag.pp d);
      if explain_wanted d then Format.printf "%a" Diag.pp_trace d)
    result.diagnostics;
  if !json_path <> "" then
    write_file !json_path (Diag.report_to_json result.diagnostics);
  if !sarif_path <> "" then begin
    let sarif = Sarif.report result.diagnostics in
    (match Sarif.parse sarif with
    | Error msg ->
        Printf.eprintf "treelint: internal: emitted SARIF fails to parse: %s\n"
          msg;
        exit 2
    | Ok j -> (
        match Sarif.validate j with
        | Ok () -> ()
        | Error errs ->
            List.iter
              (Printf.eprintf "treelint: internal: SARIF invalid: %s\n")
              errs;
            exit 2));
    write_file !sarif_path sarif
  end;
  if !update_baseline then begin
    (* Stable order: the diagnostics are already sorted by file/line/col/
       rule/offender; keep the first occurrence of each fingerprint so the
       baseline reads in source order and rewrites are deterministic. *)
    let seen = Hashtbl.create 64 in
    let lines =
      List.filter_map
        (fun d ->
          match d.Diag.status with
          | Diag.Violation | Diag.Baselined ->
              let fp = Diag.fingerprint d in
              if Hashtbl.mem seen fp then None
              else begin
                Hashtbl.replace seen fp ();
                Some fp
              end
          | Diag.Allowlisted _ -> None)
        result.diagnostics
    in
    write_file !baseline_path
      ("# treelint baseline: grandfathered diagnostics, one fingerprint per \
        line,\n# in source order (file, line, rule).  Regenerate with \
        --update-baseline;\n# shrink it, never grow it.\n"
     ^ String.concat "\n" lines
      ^ if lines = [] then "" else "\n");
    Printf.printf "treelint: baseline rewritten with %d entries\n"
      (List.length lines)
  end;
  Printf.printf
    "treelint: %d rules, %d files, %d violations (%d allowlisted, %d \
     baselined)\n"
    Engine.rule_count result.files_scanned result.violations result.allowlisted
    result.baselined;
  let gating =
    List.exists
      (fun d ->
        d.Diag.status = Diag.Violation && d.Diag.severity = Diag.Error)
      result.diagnostics
  in
  if gating && not !update_baseline then exit 1
