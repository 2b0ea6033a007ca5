(* treebench command-line interface.

   Subcommands:
     figure  — regenerate one of the paper's tables/figures
     query   — build a Derby database and run an OQL query against it,
               with any algorithm/access-path override
     plan    — show the plan both optimizers pick for a query
     load    — loading-cost experiment (Section 3.2 knobs exposed)
     list    — list reproducible figures *)

open Cmdliner

let scale_arg =
  let doc = "Scale divisor: databases at 1/SCALE of the paper's size." in
  Arg.(value & opt int 100 & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

let shape_arg =
  let shape_conv =
    Arg.enum [ ("wide", `Wide); ("1:1000", `Wide); ("deep", `Deep); ("1:3", `Deep) ]
  in
  let doc = "Database shape: wide (2,000 x 1,000) or deep (1,000,000 x 3)." in
  Arg.(value & opt shape_conv `Deep & info [ "shape" ] ~docv:"SHAPE" ~doc)

let org_conv =
  Arg.enum
    [
      ("class", Tb_derby.Generator.Class_clustered);
      ("random", Tb_derby.Generator.Randomized);
      ("composition", Tb_derby.Generator.Composition);
      ("assoc", Tb_derby.Generator.Assoc_ordered);
    ]

let org_arg =
  let doc = "Physical organization: class, random, composition or assoc." in
  Arg.(
    value
    & opt org_conv Tb_derby.Generator.Class_clustered
    & info [ "o"; "organization" ] ~docv:"ORG" ~doc)

(* The documented failures of an OQL text — a lexical or syntax error, or a
   query outside the supported subset (unknown names included) — are usage
   errors: one line on stderr and exit 2, like a bad flag.  The text is
   parsed and its names checked against the Derby schema before the
   database is built, so a bad one fails at once; [f] gets the parsed
   query. *)
let with_oql_errors oql f =
  let fail kind msg =
    Printf.eprintf "treebench: %s: %s\n" kind msg;
    exit 2
  in
  let checked oql =
    let q = Tb_query.Oql_parser.parse oql in
    Tb_query.Plan.check Tb_derby.Derby.schema q;
    q
  in
  match f (checked oql) with
  | () -> ()
  | exception Tb_query.Oql_lexer.Lex_error msg -> fail "lexical error" msg
  | exception Tb_query.Oql_parser.Parse_error msg -> fail "parse error" msg
  | exception Tb_query.Plan.Unsupported msg -> fail "unsupported query" msg

let build_db ~scale ~shape ~org =
  let cfg = Tb_derby.Generator.config ~scale shape org in
  Tb_derby.Generator.build ~cost:(Tb_sim.Cost_model.scaled scale) cfg

(* --- figure --- *)

let figure_cmd =
  let name_arg =
    let doc =
      Printf.sprintf "Figure to regenerate: %s."
        (String.concat ", " Tb_core.Figures.names)
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE" ~doc)
  in
  let csv_arg =
    let doc = "Export the recorded observations as CSV to $(docv)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let gnuplot_arg =
    let doc =
      "Write $(docv).dat and $(docv).gp (Gnuplot series and plot script) \
       from the recorded observations — the paper's O2-to-Gnuplot pipeline."
    in
    Arg.(value & opt (some string) None & info [ "gnuplot" ] ~docv:"PREFIX" ~doc)
  in
  let run name scale csv gnuplot =
    match Tb_core.Figures.by_name name with
    | exception Not_found ->
        Printf.eprintf "unknown figure %S\n" name;
        exit 2
    | f ->
        let ctx = Tb_core.Figures.create ~scale in
        f ctx Format.std_formatter;
        let stats = Tb_core.Figures.stats ctx in
        Option.iter
          (fun path ->
            let oc = open_out path in
            output_string oc (Tb_statdb.Stat_store.to_csv stats);
            close_out oc;
            Printf.printf "[stats] written to %s\n" path)
          csv;
        Option.iter
          (fun prefix ->
            let dat = prefix ^ ".dat" and gp = prefix ^ ".gp" in
            let oc = open_out dat in
            output_string oc (Tb_statdb.Stat_report.gnuplot_data stats);
            close_out oc;
            let oc = open_out gp in
            output_string oc
              (Tb_statdb.Stat_report.gnuplot_script ~data_file:dat stats);
            close_out oc;
            print_string (Tb_statdb.Stat_report.summary stats);
            Printf.printf "[gnuplot] %s and %s written\n" dat gp)
          gnuplot
  in
  let doc = "Regenerate one of the paper's tables or figures." in
  Cmd.v (Cmd.info "figure" ~doc)
    Term.(const run $ name_arg $ scale_arg $ csv_arg $ gnuplot_arg)

(* --- query --- *)

let query_cmd =
  let oql_arg =
    let doc = "The OQL query (extents: Providers, Patients)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OQL" ~doc)
  in
  let algo_arg =
    let algo_conv =
      Arg.enum
        [
          ("nl", Tb_query.Plan.NL);
          ("nojoin", Tb_query.Plan.NOJOIN);
          ("phj", Tb_query.Plan.PHJ);
          ("chj", Tb_query.Plan.CHJ);
          ("phhj", Tb_query.Plan.PHHJ);
          ("chhj", Tb_query.Plan.CHHJ);
          ("smj", Tb_query.Plan.SMJ);
        ]
    in
    let doc = "Force the join algorithm (nl, nojoin, phj, chj, phhj, chhj, smj)." in
    Arg.(value & opt (some algo_conv) None & info [ "a"; "algo" ] ~docv:"ALGO" ~doc)
  in
  let seq_arg =
    let doc = "Force sequential scans (ignore indexes)." in
    Arg.(value & flag & info [ "seq" ] ~doc)
  in
  let sorted_arg =
    let doc = "Sort Rids in index scans (true/false)." in
    Arg.(value & opt (some bool) None & info [ "sorted" ] ~docv:"BOOL" ~doc)
  in
  let show_arg =
    let doc = "Print the first rows of the result." in
    Arg.(value & flag & info [ "show" ] ~doc)
  in
  let explain_arg =
    let doc =
      "EXPLAIN ANALYZE: print the physical operator tree with per-operator \
       rows, pages, Handles, hash/sort work and simulated ms, reconciled \
       against the global counters."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let optimize_arg =
    let doc =
      "Run the four-stage optimizer pipeline (enumerate, cost, pick, \
       validate) instead of the forced path: every candidate plan is \
       costed from catalog statistics, the argmin executes, and each \
       operator's estimate is reconciled against its accounted frame.  \
       With --explain the per-operator estimated-vs-actual columns and the \
       feedback summary are printed.  Excludes --algo/--seq/--sorted and \
       --shards > 1."
    in
    Arg.(value & flag & info [ "optimize" ] ~doc)
  in
  let shards_arg =
    let doc =
      "Run the query over $(docv) hash-partitioned shards.  Parallelism is \
       simulated but exact: elapsed is the max over per-shard clock lanes \
       plus the Gather merge cost; with --explain the per-shard operator \
       frames and the critical-path shard are printed."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let replicas_arg =
    let doc =
      "Keep $(docv) copies of every shard (primary + followers on distinct \
       nodes).  The build applies each statement to the whole replica group; \
       a mid-query shard death fails over to the next copy.  Requires \
       1 <= R <= shards."
    in
    Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"R" ~doc)
  in
  let chaos_seed_arg =
    let doc =
      "Chaos mode: derive per-shard fault schedules from $(docv) — transient \
       RPC losses on every shard plus one scheduled shard kill at a seeded \
       exchange boundary — and print the failover report.  Deterministic: \
       the same seed reproduces the same kills, retries and fingerprint.  \
       Requires --shards > 1 and --replicas >= 2."
    in
    Arg.(value & opt (some int) None & info [ "chaos-seed" ] ~docv:"SEED" ~doc)
  in
  let run_sharded oql ~scale ~shape ~org ~shards ~replicas ~chaos_seed ~algo
      ~seq ~sorted ~show ~explain =
    let cfg = Tb_derby.Generator.config ~scale shape org in
    let b =
      Tb_derby.Generator.build_sharded ~cost:(Tb_sim.Cost_model.scaled scale)
        ~shards ~replicas cfg
    in
    let smap = b.Tb_derby.Generator.smap in
    let organization = Tb_derby.Generator.estimate_organization cfg in
    Tb_store.Shard_map.cold_restart smap;
    Option.iter
      (fun seed ->
        let reg = Tb_storage.Fault.registry ~seed ~shards in
        Tb_store.Shard_map.set_fault_registry smap (Some reg);
        Tb_storage.Fault.iter_registry reg (fun f ->
            Tb_storage.Fault.set_rpc_faults f ~permille:100 ~max_retries:4);
        let rng = Tb_sim.Rng.create seed in
        let victim = Tb_sim.Rng.int rng shards in
        let boundary = 1 + Tb_sim.Rng.int rng 2 in
        Tb_storage.Fault.schedule_shard_crash
          (Tb_storage.Fault.shard_fault reg victim)
          ~at_boundary:boundary;
        Format.printf "chaos: seed=%d kill shard %d at boundary %d@." seed
          victim boundary)
      chaos_seed;
    let r, root, global, lanes =
      Tb_query.Planner.run_sharded_explained smap oql ~organization
        ?force_algo:algo ~force_seq:seq ?force_sorted:sorted ~keep:show
    in
    Format.printf "rows=%d  shards=%d  work=%.3f ms  elapsed=%.3f ms@."
      (Tb_query.Query_result.count r)
      shards global.Tb_query.Op.t_ms lanes.Tb_query.Exec.elapsed_ms;
    if lanes.Tb_query.Exec.degraded then begin
      Format.printf "degraded: completed with reduced replicas@.";
      List.iter
        (fun fo ->
          Format.printf
            "failover: shard %d died at boundary %d (%s phase), recovered in \
             %.3f ms@."
            fo.Tb_query.Exec.fo_shard fo.Tb_query.Exec.fo_boundary
            fo.Tb_query.Exec.fo_phase fo.Tb_query.Exec.fo_ms)
        lanes.Tb_query.Exec.failovers
    end;
    if explain then begin
      Format.printf "%a" (Tb_query.Op.pp_report ~global) root;
      Array.iteri
        (fun i ms ->
          Format.printf "lane %d: %10.3f ms%s@." i ms
            (if i = lanes.Tb_query.Exec.critical then "   <- critical path"
             else ""))
        lanes.Tb_query.Exec.lane_ms;
      Format.printf "gather merge: %.3f ms@." lanes.Tb_query.Exec.merge_ms
    end;
    if show then
      List.iter
        (fun v -> Format.printf "  %a@." Tb_store.Value.pp v)
        (Tb_query.Query_result.sample r);
    Tb_query.Query_result.dispose r
  in
  let run_optimized oql ~scale ~shape ~org ~show ~explain =
    let b = build_db ~scale ~shape ~org in
    let db = b.Tb_derby.Generator.db in
    let organization =
      Tb_derby.Generator.estimate_organization b.Tb_derby.Generator.cfg
    in
    Tb_store.Database.cold_restart db;
    let r, d, global, checks =
      Tb_query.Planner.run_optimized_explained db oql ~organization ~keep:show
    in
    Format.printf "optimizer: %d candidates, chose %s (est %.3f ms)@."
      (List.length d.Tb_query.Planner.d_candidates)
      (Tb_query.Planner.d_desc d) d.Tb_query.Planner.d_cost_ms;
    List.iteri
      (fun i ch ->
        if i < 3 then
          Format.printf "  #%d %-44s %12.3f ms@." (i + 1)
            (Tb_query.Planner.ch_desc ch) ch.Tb_query.Planner.ch_cost_ms)
      d.Tb_query.Planner.d_candidates;
    Format.printf "plan: %a@." Tb_query.Plan.pp d.Tb_query.Planner.d_plan;
    Format.printf "rows=%d  actual=%.3f ms@."
      (Tb_query.Query_result.count r)
      global.Tb_query.Op.t_ms;
    if explain then begin
      Format.printf "%a"
        (Tb_query.Op.Est.pp_report ~global)
        d.Tb_query.Planner.d_root;
      let fed =
        List.filter (fun c -> c.Tb_query.Exec.ec_fed_back) checks
      in
      Format.printf
        "validate: %d operators checked, %d corrections fed back, worst \
         q-error %.2f@."
        (List.length checks) (List.length fed)
        (Tb_query.Exec.worst_q checks)
    end;
    if show then
      List.iter
        (fun v -> Format.printf "  %a@." Tb_store.Value.pp v)
        (Tb_query.Query_result.sample r);
    Tb_query.Query_result.dispose r
  in
  let run oql scale shape org algo seq sorted show explain optimize shards
      replicas chaos_seed =
    if shards < 1 then begin
      Printf.eprintf "treebench: --shards expects a positive count\n";
      exit 2
    end;
    if optimize then begin
      if shards > 1 then begin
        Printf.eprintf
          "treebench: --optimize plans single-node queries (use \
           Planner.optimize_sharded for the break-even analysis)\n";
        exit 2
      end;
      (match (algo, seq, sorted) with
      | None, false, None -> ()
      | _ ->
          Printf.eprintf
            "treebench: --optimize searches the whole candidate space; it \
             excludes --algo, --seq and --sorted\n";
          exit 2)
    end;
    let extent = (Tb_derby.Generator.config ~scale shape org).n_providers in
    if shards > extent then begin
      Printf.eprintf
        "treebench: --shards %d exceeds the Providers extent (%d at 1/%d \
         scale); every shard needs at least one provider\n"
        shards extent scale;
      exit 2
    end;
    if replicas < 1 || replicas > shards then begin
      Printf.eprintf
        "treebench: --replicas expects 1 <= R <= shards (%d copies need %d \
         distinct nodes, have %d)\n"
        replicas replicas shards;
      exit 2
    end;
    (match chaos_seed with
    | Some _ when shards < 2 || replicas < 2 ->
        Printf.eprintf
          "treebench: --chaos-seed needs --shards > 1 and --replicas >= 2 (a \
           killed shard must have a replica to fail over to)\n";
        exit 2
    | _ -> ());
    with_oql_errors oql @@ fun _ ->
    if shards > 1 then
      run_sharded oql ~scale ~shape ~org ~shards ~replicas ~chaos_seed ~algo
        ~seq ~sorted ~show ~explain
    else if optimize then run_optimized oql ~scale ~shape ~org ~show ~explain
    else begin
    let b = build_db ~scale ~shape ~org in
    let organization =
      Tb_derby.Generator.estimate_organization b.Tb_derby.Generator.cfg
    in
    let m =
      Tb_core.Measurement.run_cold b.Tb_derby.Generator.db oql ~organization
        ?force_algo:algo ~force_seq:seq ?force_sorted:sorted ~label:"query"
    in
    Format.printf "%a@." Tb_core.Measurement.pp m;
    if explain then begin
      Tb_store.Database.cold_restart b.Tb_derby.Generator.db;
      let r, root, global =
        Tb_query.Planner.run_explained b.Tb_derby.Generator.db oql
          ~organization ?force_algo:algo ~force_seq:seq ?force_sorted:sorted
          ~keep:false
      in
      Format.printf "%a" (Tb_query.Op.pp_report ~global) root;
      Tb_query.Query_result.dispose r
    end;
    if show then begin
      Tb_store.Database.cold_restart b.Tb_derby.Generator.db;
      let r =
        Tb_query.Planner.run b.Tb_derby.Generator.db oql ?force_algo:algo
          ~force_seq:seq ?force_sorted:sorted ~keep:false
      in
      List.iter
        (fun v -> Format.printf "  %a@." Tb_store.Value.pp v)
        (Tb_query.Query_result.sample r);
      Tb_query.Query_result.dispose r
    end
    end
  in
  let doc = "Build a Derby database and run one OQL query, cold." in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const run $ oql_arg $ scale_arg $ shape_arg $ org_arg $ algo_arg
      $ seq_arg $ sorted_arg $ show_arg $ explain_arg $ optimize_arg
      $ shards_arg $ replicas_arg $ chaos_seed_arg)

(* --- plan --- *)

let plan_cmd =
  let oql_arg =
    let doc = "The OQL query to plan." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OQL" ~doc)
  in
  let run oql scale shape org =
    with_oql_errors oql @@ fun q ->
    let b = build_db ~scale ~shape ~org in
    let db = b.Tb_derby.Generator.db in
    let organization =
      Tb_derby.Generator.estimate_organization b.Tb_derby.Generator.cfg
    in
    (* O2's navigation-biased heuristic is the planner with the algorithm
       and the Rid order forced. *)
    let heuristic =
      Tb_query.Planner.plan ~force_algo:Tb_query.Plan.NL ~force_sorted:false
        ~organization db q
    in
    let cost_based = Tb_query.Planner.plan ~organization db q in
    Format.printf "parsed:     %a@." Tb_query.Oql_ast.pp_query q;
    Format.printf "heuristic:  %a@." Tb_query.Plan.pp heuristic;
    Format.printf "cost-based: %a@." Tb_query.Plan.pp cost_based;
    match Tb_query.Plan.bind db q with
    | Tb_query.Plan.B_hier _ as bound ->
        let env =
          Tb_query.Planner.join_env (Tb_statcore.Stat_catalog.analyze db) bound
            ~organization
        in
        Format.printf "estimates:@.";
        List.iter
          (fun (algo, ms) ->
            Format.printf "  %-8s %10.2f s@."
              (Tb_query.Plan.algo_name algo)
              (ms /. 1000.0))
          (Tb_query.Estimate.rank_joins env)
    | Tb_query.Plan.B_selection _ -> ()
  in
  let doc =
    "Show the O2 heuristic plan and the cost-based plan, with join cost \
     estimates."
  in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(const run $ oql_arg $ scale_arg $ shape_arg $ org_arg)

(* --- load --- *)

let load_cmd =
  let txn_arg =
    let doc = "Load under standard transactions instead of transaction-off." in
    Arg.(value & flag & info [ "standard-txn" ] ~doc)
  in
  let unindexed_arg =
    let doc =
      "Create objects without index slots (the first index then reallocates \
       every object — the Section 3.2 trap)."
    in
    Arg.(value & flag & info [ "unindexed-creation" ] ~doc)
  in
  let small_cache_arg =
    let doc = "Use the default 4 MB client cache instead of the tuned 32 MB." in
    Arg.(value & flag & info [ "small-client-cache" ] ~doc)
  in
  let run scale shape org standard unindexed small_cache =
    let cfg = Tb_derby.Generator.config ~scale shape org in
    let cfg =
      {
        cfg with
        Tb_derby.Generator.txn_mode =
          (if standard then Tb_store.Transaction.Standard
           else Tb_store.Transaction.Load_off);
        indexed_creation = not unindexed;
        client_pages =
          (if small_cache then cfg.Tb_derby.Generator.server_pages
           else cfg.Tb_derby.Generator.client_pages);
      }
    in
    let b = Tb_derby.Generator.build ~cost:(Tb_sim.Cost_model.scaled scale) cfg in
    Printf.printf
      "loaded %d providers and %d patients (%s, 1/%d scale) in %.2f simulated \
       seconds\n"
      (Array.length b.Tb_derby.Generator.providers)
      (Array.length b.Tb_derby.Generator.patients)
      (match org with
      | Tb_derby.Generator.Class_clustered -> "class clustering"
      | Tb_derby.Generator.Randomized -> "random"
      | Tb_derby.Generator.Composition -> "composition"
      | Tb_derby.Generator.Assoc_ordered -> "assoc-ordered")
      scale b.Tb_derby.Generator.load_seconds
  in
  let doc = "Measure database-loading cost under the Section 3.2 knobs." in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      const run $ scale_arg $ shape_arg $ org_arg $ txn_arg $ unindexed_arg
      $ small_cache_arg)

(* --- list --- *)

let list_cmd =
  let run () =
    List.iter print_endline Tb_core.Figures.names
  in
  let doc = "List the figures that can be regenerated." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let () =
  let doc =
    "reproduce `Benchmarking Queries over Trees: Learning the Hard Truth the \
     Hard Way' (SIGMOD 2000)"
  in
  let info = Cmd.info "treebench" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ figure_cmd; query_cmd; plan_cmd; load_cmd; list_cmd ]))
