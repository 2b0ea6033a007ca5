(* Benchmark harness.

   Usage:
     dune exec bench/main.exe                    — every figure, default scale
     dune exec bench/main.exe -- fig11 fig15     — selected figures
     dune exec bench/main.exe -- --scale 10 all  — deeper scale
     dune exec bench/main.exe -- --micro         — Bechamel wall-clock suite
     dune exec bench/main.exe -- --shards 1,4    — fig7 scan shard-count sweep
                                                   (bare --shards: 1,2,4,8)
   A mode flag (--micro, --shards) runs no figure unless one is
   named; without one, no figure named means every figure.
     dune exec bench/main.exe -- --csv out.csv   — export the stats database

   Figures print simulated (paper-protocol) elapsed times side by side with
   the paper's published numbers; the Bechamel suite measures the real
   wall-clock cost of the engine operations behind each table. *)

module Micro = Tb_micro.Micro

let default_scale = 40

let usage msg =
  Printf.eprintf "%s\n" msg;
  Printf.eprintf
    "usage: main [--scale N] [--micro] [--shards [N[,N...]]] \
     [--csv FILE] [figure ...]\n\
     known figures: %s\n"
    (String.concat ", " Tb_core.Figures.names);
  exit 2

let parse_args () =
  let scale = ref default_scale in
  let micro = ref false in
  let shards = ref [] in
  let csv = ref None in
  let figures = ref [] in
  let rec go = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n > 0 -> scale := n
        | Some _ | None ->
            usage (Printf.sprintf "--scale expects a positive integer, got %S" v));
        go rest
    | [ "--scale" ] -> usage "--scale requires a value"
    | "--micro" :: rest ->
        micro := true;
        go rest
    | "--shards" :: rest ->
        (* An explicit comma list may follow; bare --shards sweeps the
           default S ∈ {1, 2, 4, 8}. *)
        let parse_list v =
          List.map
            (fun s ->
              match int_of_string_opt (String.trim s) with
              | Some n when n > 0 -> Some n
              | Some _ | None -> None)
            (String.split_on_char ',' v)
        in
        let taken, rest =
          match rest with
          | v :: more -> (
              match parse_list v with
              | parsed when List.for_all Option.is_some parsed ->
                  (List.filter_map Fun.id parsed, more)
              | _ -> ([ 1; 2; 4; 8 ], rest))
          | [] -> ([ 1; 2; 4; 8 ], [])
        in
        shards := !shards @ taken;
        go rest
    | "--csv" :: path :: rest ->
        csv := Some path;
        go rest
    | [ "--csv" ] -> usage "--csv requires a path"
    | name :: rest ->
        if List.mem name Tb_core.Figures.names then figures := name :: !figures
        else usage (Printf.sprintf "unknown figure %S" name);
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  (* Every figure only when nothing else was asked for: a mode flag alone
     runs just its mode. *)
  let modes = !micro || !shards <> [] in
  let figures =
    match List.rev !figures with [] when not modes -> [ "all" ] | fs -> fs
  in
  (!scale, !micro, !shards, !csv, figures)

(* Benchmark names come back as "treebench/<name>". *)
let strip_group name =
  match String.index_opt name '/' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* Run [(name, kernel)] pairs under Bechamel and return [(name,
   ns_per_run)], sorted by name.  Reported, never gated: the gate on the
   same kernels is their allocation, in test/alloc_tests.ml. *)
let estimates_of ~quota kernels =
  let open Bechamel in
  let tests =
    List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) kernels
  in
  let grouped = Test.make_grouped ~name:"treebench" tests in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second quota) () in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  let rows = ref [] in
  Hashtbl.iter
    (fun _measure tbl ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some (est :: _) -> rows := (strip_group name, est) :: !rows
          | Some [] | None -> ())
        tbl)
    merged;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !rows

(* Exits 1 when Bechamel returns no estimate for some kernel, so a run
   cannot quietly report a short table. *)
let print_estimates title kernels =
  Printf.printf "\n=== %s ===\n" title;
  let rows = estimates_of ~quota:0.5 kernels in
  List.iter
    (fun (name, est) -> Printf.printf "%-36s %14.1f ns/run\n" name est)
    rows;
  if List.length rows < List.length kernels then begin
    Printf.eprintf "bench: %d of %d kernels returned no estimate\n"
      (List.length kernels - List.length rows)
      (List.length kernels);
    exit 1
  end

(* Shard-count sweep over the fig7 full scan, in *simulated* elapsed time:
   the near-linear fork/join speedup, with the Gather merge cost bending
   the curve.  Deterministic — one cold run per shard count; each S gets
   its own freshly built partitioning. *)
let shard_sweep ~shards_list () =
  List.map
    (fun shards ->
      let b =
        Tb_derby.Generator.build_sharded ~cost:(Tb_sim.Cost_model.scaled 500)
          ~shards (Micro.bench_cfg ())
      in
      let smap = b.Tb_derby.Generator.smap in
      Tb_store.Shard_map.cold_restart smap;
      let q =
        Printf.sprintf "select pa.age from pa in Patients where pa.num < %d"
          (Array.length b.Tb_derby.Generator.sh_patients / 2)
      in
      let r, _, _, lanes =
        Tb_query.Planner.run_sharded_explained smap q ~force_seq:true
          ~keep:false
      in
      Tb_query.Query_result.dispose r;
      (shards, lanes))
    shards_list

(* Simulated elapsed, not wall clock: the fork/join clock's speedup with
   the Gather merge cost itemized. *)
let run_shard_sweep shards_list =
  Printf.printf
    "\n=== Shard sweep (fig7 full scan, simulated elapsed) ===\n";
  let sweep = shard_sweep ~shards_list () in
  let base =
    match sweep with (_, l) :: _ -> l.Tb_query.Exec.elapsed_ms | [] -> 1.0
  in
  List.iter
    (fun (s, l) ->
      Printf.printf
        "S=%-2d  elapsed %10.3f ms  speedup %5.2fx  merge %7.3f ms  \
         critical shard %d\n"
        s l.Tb_query.Exec.elapsed_ms
        (base /. l.Tb_query.Exec.elapsed_ms)
        l.Tb_query.Exec.merge_ms l.Tb_query.Exec.critical)
    sweep

let () =
  let scale, micro, shards, csv, figures = parse_args () in
  let ppf = Format.std_formatter in
  Format.fprintf ppf
    "treebench — reproducing \"Benchmarking Queries over Trees: Learning \
     the Hard Truth the Hard Way\" (SIGMOD 2000)@.Databases at 1/%d of the \
     paper's cardinalities; memory scaled identically, so winners and@.\
     crossovers are preserved and simulated times are roughly 1/%d of the \
     paper's seconds.@."
    scale scale;
  let ctx = Tb_core.Figures.create ~scale in
  List.iter (fun name -> (Tb_core.Figures.by_name name) ctx ppf) figures;
  (match csv with
  | None when figures = [] -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Tb_statdb.Stat_store.to_csv (Tb_core.Figures.stats ctx));
      close_out oc;
      Format.fprintf ppf "@.[stats] %d observations written to %s@."
        (Tb_statdb.Stat_store.count (Tb_core.Figures.stats ctx))
        path
  | None ->
      Format.fprintf ppf
        "@.[stats] %d observations recorded in the Figure-3 stats database \
         (use --csv FILE to export)@."
        (Tb_statdb.Stat_store.count (Tb_core.Figures.stats ctx)));
  if micro then
    print_estimates "Bechamel microbenchmarks (wall clock)" (Micro.kernels ());
  if shards <> [] then run_shard_sweep shards
