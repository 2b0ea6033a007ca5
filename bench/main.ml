(* Benchmark harness.

   Usage:
     dune exec bench/main.exe                    — every figure, default scale
     dune exec bench/main.exe -- fig11 fig15     — selected figures
     dune exec bench/main.exe -- --scale 10 all  — deeper scale
     dune exec bench/main.exe -- --micro         — Bechamel wall-clock suite
     dune exec bench/main.exe -- --batch 1,256   — fig7 scan batch-size sweep
     dune exec bench/main.exe -- --shards 1,4    — fig7 scan shard-count sweep
                                                   (bare --shards: 1,2,4,8)
     dune exec bench/main.exe -- --csv out.csv   — export the stats database

   Figures print simulated (paper-protocol) elapsed times side by side with
   the paper's published numbers; the Bechamel suite measures the real
   wall-clock cost of the engine operations behind each table. *)

let default_scale = 40

let usage msg =
  Printf.eprintf "%s\n" msg;
  Printf.eprintf
    "usage: main [--scale N] [--micro] [--batch N[,N...]] [--shards [N[,N...]]] \
     [--csv FILE] [figure ...]\n\
     known figures: %s\n"
    (String.concat ", " Tb_core.Figures.names);
  exit 2

let parse_args () =
  let scale = ref default_scale in
  let micro = ref false in
  let batches = ref [] in
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
    | "--batch" :: v :: rest ->
        let parsed =
          List.map
            (fun s ->
              match int_of_string_opt (String.trim s) with
              | Some n when n > 0 -> n
              | Some _ | None ->
                  usage
                    (Printf.sprintf "--batch expects positive integers, got %S" v))
            (String.split_on_char ',' v)
        in
        batches := !batches @ parsed;
        go rest
    | [ "--batch" ] -> usage "--batch requires a value, e.g. 1,64,256,1024"
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
  let figures = match List.rev !figures with [] -> [ "all" ] | fs -> fs in
  (!scale, !micro, !batches, !shards, !csv, figures)

(* The Bechamel micro suite itself lives in {!Micro}, shared with
   bench/perf_gate.exe. *)
let run_micro () =
  Printf.printf "\n=== Bechamel microbenchmarks (wall clock) ===\n";
  List.iter
    (fun (name, est) -> Printf.printf "%-36s %14.1f ns/run\n" name est)
    (Micro.estimates ~quota:0.5 ())

(* Wall-clock only — the parity test guarantees the batch size cannot move
   a simulated charge. *)
let run_batch_sweep batches =
  Printf.printf "\n=== Batch-size sweep (fig7 full scan, wall clock) ===\n";
  List.iter
    (fun (name, est) -> Printf.printf "%-36s %14.1f ns/run\n" name est)
    (Micro.batch_sweep ~quota:0.5 ~batches ())

(* Simulated elapsed, not wall clock: the fork/join clock's speedup with
   the Gather merge cost itemized. *)
let run_shard_sweep shards_list =
  Printf.printf
    "\n=== Shard sweep (fig7 full scan, simulated elapsed) ===\n";
  let sweep = Micro.shard_sweep ~shards_list () in
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
  let scale, micro, batches, shards, csv, figures = parse_args () in
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
  if micro then run_micro ();
  if batches <> [] then run_batch_sweep batches;
  if shards <> [] then run_shard_sweep shards
