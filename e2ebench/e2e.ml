(* One round of one workload, in this process: set up, warm up, run whole
   stream blocks until the time budget is spent, check every answer, and
   print the raw measurements as one JSON line for e2ebench/run.py to pool.

   usage: e2e.exe --workload NAME --seed N --seconds S [--trace FILE] [--smoke]

   With --trace every operation runs twice in a row, once untraced and once
   with spans around each engine call (alternating which goes first), and
   the spans of the first traced operations are written to FILE as Chrome
   trace events.  --smoke builds at scale 500 and runs the first 20
   operations of one block. *)

module W = Workload
module Counters = Tb_sim.Counters

let usage msg =
  Printf.eprintf
    "%s\nusage: e2e.exe --workload {%s} --seed N --seconds S [--trace FILE] [--smoke]\n"
    msg
    (String.concat "|" (List.map fst W.kinds));
  exit 2

let parse_args () =
  let kind = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and smoke = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        (match List.assoc_opt v W.kinds with
        | Some k -> kind := Some k
        | None -> usage (Printf.sprintf "unknown workload %S" v));
        go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n -> seed := Some n
        | None -> usage (Printf.sprintf "--seed expects an integer, got %S" v));
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := Some s
        | _ -> usage (Printf.sprintf "--seconds expects a positive number, got %S" v));
        go rest
    | "--trace" :: path :: rest ->
        trace := Some path;
        go rest
    | "--smoke" :: rest ->
        smoke := true;
        go rest
    | arg :: _ -> usage (Printf.sprintf "unexpected argument %S" arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!kind, !seed, !seconds) with
  | Some k, Some s, Some secs -> (k, s, secs, !trace, !smoke)
  | _ -> usage "--workload, --seed and --seconds are required"

(* Latency samples are kept newest first. *)
type acc = {
  mutable query_ms : float list;
  mutable txn_ms : float list;
  mutable traced_query_ms : float list;
  mutable traced_txn_ms : float list;
  mutable worst_q : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable ops : int;  (** timed operations, traced or not *)
  mutable queries : int;
  mutable txns : int;
  mutable aborts : int;
  mutable rows : int;
  mutable traced_rows : int;
  mutable untraced_ops : int;
  mutable candidates : int;
  mutable est_checks : int;
  mutable fed_back : int;
  mutable lane_skew : float;
  mutable packed : int;
  mutable modes : int;
  mutable minor : float;  (** GC words over untraced timed operations *)
  mutable promoted : float;
  mutable major : float;
}

let fail acc msg =
  acc.failed <- acc.failed + 1;
  if List.length acc.errors < 5 then acc.errors <- msg :: acc.errors

(* Fetch/Harvest operators that evaluate on packed bytes, of all that could. *)
let tally_modes acc root =
  Tb_query.Op.iter
    (fun (o : Tb_query.Op.t) ->
      match o.Tb_query.Op.kind with
      | Tb_query.Op.Fetch { mode; _ } | Tb_query.Op.Harvest { mode; _ } ->
          acc.modes <- acc.modes + 1;
          if mode = Tb_query.Op.Packed then acc.packed <- acc.packed + 1
      | _ -> ())
    root

let tally_query acc ~traced (d : W.done_query) =
  let rows = Tb_query.Query_result.rows_seen d.W.result in
  acc.queries <- acc.queries + 1;
  acc.rows <- acc.rows + rows;
  if traced then acc.traced_rows <- acc.traced_rows + rows;
  Option.iter
    (fun dec -> acc.candidates <- acc.candidates + List.length dec.Tb_query.Planner.d_candidates)
    d.W.decision;
  if d.W.est_checks <> [] then begin
    acc.est_checks <- acc.est_checks + List.length d.W.est_checks;
    acc.fed_back <-
      acc.fed_back
      + List.length (List.filter (fun c -> c.Tb_query.Exec.ec_fed_back) d.W.est_checks);
    acc.worst_q <- Tb_query.Exec.worst_q d.W.est_checks :: acc.worst_q
  end;
  acc.lane_skew <-
    (acc.lane_skew
    +.
    match d.W.lanes with
    | Some { Tb_query.Exec.lane_ms; _ } when Array.length lane_ms > 0 ->
        let mx = Array.fold_left max 0.0 lane_ms in
        let mean = Array.fold_left ( +. ) 0.0 lane_ms /. float_of_int (Array.length lane_ms) in
        if mean > 0.0 then mx /. mean else 1.0
    | _ -> 1.0);
  Option.iter (tally_modes acc) d.W.root

type ran = Q of W.query * W.done_query | T of W.txn

let run_op t tr = function
  | W.Query q -> Q (q, W.run_query t tr q)
  | W.Txn x ->
      W.run_txn t tr x;
      T x

(* Execute one operation; time it when [timed]; check its answer after the
   clock stops. *)
let execute t acc tr ~timed op =
  let minor0, promoted0, major0 = Gc.counters () in
  let t0 = Monotonic_clock.now () in
  let res =
    match
      match tr with
      | Some s -> Span.operation s (fun () -> run_op t tr op)
      | None -> run_op t None op
    with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let t1 = Monotonic_clock.now () in
  let minor1, promoted1, major1 = Gc.counters () in
  acc.attempted <- acc.attempted + 1;
  if timed then begin
    acc.ops <- acc.ops + 1;
    let ms = Int64.to_float (Int64.sub t1 t0) /. 1e6 in
    (match (op, tr) with
    | W.Query _, None -> acc.query_ms <- ms :: acc.query_ms
    | W.Txn _, None -> acc.txn_ms <- ms :: acc.txn_ms
    | W.Query _, Some _ -> acc.traced_query_ms <- ms :: acc.traced_query_ms
    | W.Txn _, Some _ -> acc.traced_txn_ms <- ms :: acc.traced_txn_ms);
    if tr = None then begin
      acc.untraced_ops <- acc.untraced_ops + 1;
      acc.minor <- acc.minor +. (minor1 -. minor0);
      acc.promoted <- acc.promoted +. (promoted1 -. promoted0);
      acc.major <- acc.major +. (major1 -. major0)
    end
  end;
  match res with
  | Error e -> fail acc (W.kind_name t.W.kind ^ ": raised " ^ e)
  | Ok (Q (q, d)) -> (
      if timed then tally_query acc ~traced:(tr <> None) d;
      match W.check_query t q d with Some e -> fail acc e | None -> ())
  | Ok (T x) ->
      if timed then begin
        acc.txns <- acc.txns + 1;
        if x.W.abort then acc.aborts <- acc.aborts + 1
      end

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

let json_list f l = "[" ^ String.concat "," (List.map f l) ^ "]"

let digest (t : W.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( Counters.snapshot t.W.sim.Tb_sim.Sim.counters,
            Int64.bits_of_float (Tb_sim.Sim.elapsed_s t.W.sim) )
          []))

let counter_fields (c : Counters.t) =
  Counters.
    [
      ("disk_reads", c.disk_reads);
      ("disk_writes", c.disk_writes);
      ("rpc_pages", c.rpc_pages);
      ("server_hits", c.server_hits);
      ("server_misses", c.server_misses);
      ("client_hits", c.client_hits);
      ("client_misses", c.client_misses);
      ("handle_allocs", c.handle_allocs);
      ("handle_hits", c.handle_hits);
      ("get_atts", c.get_atts);
      ("comparisons", c.comparisons);
      ("hash_probes", c.hash_probes);
      ("sort_comparisons", c.sort_comparisons);
      ("wal_appends", c.wal_appends);
      ("undo_pages", c.undo_pages);
      ("failovers", c.failovers);
    ]

let () =
  let kind, seed, seconds, trace_path, smoke = parse_args () in
  let t = W.setup kind ~seed ~smoke in
  let acc =
    {
      query_ms = [];
      txn_ms = [];
      traced_query_ms = [];
      traced_txn_ms = [];
      worst_q = [];
      attempted = 0;
      failed = 0;
      errors = [];
      ops = 0;
      queries = 0;
      txns = 0;
      aborts = 0;
      rows = 0;
      traced_rows = 0;
      untraced_ops = 0;
      candidates = 0;
      est_checks = 0;
      fed_back = 0;
      lane_skew = 0.0;
      packed = 0;
      modes = 0;
      minor = 0.0;
      promoted = 0.0;
      major = 0.0;
    }
  in
  let spans = Span.create () in
  let warm = W.block t 0 in
  for i = 0 to min (W.warmup kind) (Array.length warm) - 1 do
    execute t acc None ~timed:false warm.(i)
  done;
  let counters0 = Counters.snapshot t.W.sim.Tb_sim.Sim.counters in
  let sim0 = Tb_sim.Sim.elapsed_s t.W.sim in
  let pages0 = W.durable_pages t in
  let collections0 = (Gc.quick_stat ()).Gc.major_collections in
  let start = Monotonic_clock.now () in
  let digest_at_block1 = ref "" and live_heap_mb = ref 0.0 in
  let rec loop b =
    let ops = W.block t b in
    let ops = if smoke then Array.sub ops 0 (min 20 (Array.length ops)) else ops in
    Array.iteri
      (fun i op ->
        let run tr = execute t acc tr ~timed:true op in
        match trace_path with
        | None -> run None
        | Some _ when (b + i) mod 2 = 0 ->
            run None;
            run (Some spans)
        | Some _ ->
            run (Some spans);
            run None)
      ops;
    (* After the warm-up and the first block, so that neither depends on how
       many blocks the budget lets run: the simulated-counter digest, and the
       live data after a full collection (database, caches and whatever the
       engine retains, independent of when the GC last ran). *)
    if b = 1 then begin
      digest_at_block1 := digest t;
      Gc.full_major ();
      live_heap_mb :=
        float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0
    end;
    if (not smoke) && W.seconds_since start < seconds then loop (b + 1)
  in
  loop 1;
  let counters =
    Counters.diff ~later:t.W.sim.Tb_sim.Sim.counters ~earlier:counters0
  in
  let sim_ms = (Tb_sim.Sim.elapsed_s t.W.sim -. sim0) *. 1e3 in
  let pages1 = W.durable_pages t in
  let collections = (Gc.quick_stat ()).Gc.major_collections - collections0 in
  if kind = W.Update_mix then begin
    acc.attempted <- acc.attempted + 1;
    Option.iter (fail acc) (W.check_durability t)
  end;
  let layers = Span.layers spans in
  let op_ns = Span.op_ns spans in
  let self_ns = List.fold_left (fun a (_, (ns, _)) -> a +. ns) 0.0 layers in
  if Float.abs (self_ns -. op_ns) > 0.01 *. op_ns then
    fail acc "trace: layer self times do not sum to the traced operation time";
  Option.iter (Span.write_chrome spans) trace_path;
  let int_field (k, v) = (k, string_of_int v) in
  let counts =
    List.map int_field
      ([
         ("ops", acc.ops);
         ("queries", acc.queries);
         ("txns", acc.txns);
         ("aborts", acc.aborts);
         ("rows", acc.rows);
         ("traced_rows", acc.traced_rows);
         ("untraced_ops", acc.untraced_ops);
         ("candidates", acc.candidates);
         ("est_checks", acc.est_checks);
         ("fed_back", acc.fed_back);
         ("packed", acc.packed);
         ("modes", acc.modes);
         ("major_collections", collections);
         ("durable_pages_start", pages0);
         ("durable_pages_end", pages1);
       ]
      @ counter_fields counters)
    @ [
        ("lane_skew_sum", json_float acc.lane_skew);
        ("minor_words", json_float acc.minor);
        ("promoted_words", json_float acc.promoted);
        ("major_words", json_float acc.major);
        ("sim_ms", json_float sim_ms);
      ]
  in
  let floats l = json_list json_float (List.rev l) in
  print_endline
    (json_obj
       [
         ("workload", json_string (W.kind_name kind));
         ("seed", string_of_int seed);
         ("setup_s", json_float (t.W.build_s +. t.W.analyze_s));
         ("build_s", json_float t.W.build_s);
         ("attempted", string_of_int acc.attempted);
         ("failed", string_of_int acc.failed);
         ("errors", json_list json_string (List.rev acc.errors));
         ("digest", json_string (if trace_path = None then !digest_at_block1 else ""));
         ("live_heap_mb", json_float !live_heap_mb);
         ("query_ms", floats acc.query_ms);
         ("txn_ms", floats acc.txn_ms);
         ("traced_query_ms", floats acc.traced_query_ms);
         ("traced_txn_ms", floats acc.traced_txn_ms);
         ("worst_q", floats acc.worst_q);
         ("counts", json_obj counts);
         ("traced_ops", string_of_int spans.Span.ops);
         ("traced_op_ns", json_float op_ns);
         ( "layers",
           json_obj
             (List.map
                (fun (name, (ns, alloc)) -> (name, json_list json_float [ ns; alloc ]))
                layers) );
       ])
