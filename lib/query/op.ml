module Value = Tb_store.Value
module Handle = Tb_store.Handle
module Index_def = Tb_store.Index_def
module Rid = Tb_storage.Rid
module Sim = Tb_sim.Sim
module Counters = Tb_sim.Counters

(* A join side is visible either as a live Handle or as information stowed
   in a hash table: "We always store in the hash tables the elements needed
   to construct f(p, pa)" (Section 5).  A stowed payload keeps its values
   in the harvesting operator's [attrs] order; the names live once on that
   operator, not in every payload. *)
type payload = { self : Rid.t; vals : Value.t array }

(* How a row binds one plan variable, fixed per operator when the plan is
   run: which register cell holds it and, for a payload, where each
   attribute sits in [vals]. *)
type source = Live of string | Stored of string list | Ident

(* One row: a cell per plan variable in each array, indexed by the
   variable's register.  Emission is a depth-first push, so an operator
   writes its cell, calls downstream and is done with the row before it
   writes the next: one register file serves the whole run. *)
type regs = { live : Handle.t array; stored : payload array; ident : Rid.t array }

let no_payload = { self = Rid.nil; vals = [||] }

let make_regs n =
  {
    live = Array.make n Handle.none;
    stored = Array.make n no_payload;
    ident = Array.make n Rid.nil;
  }

(* How an operator derives the join key from a live Handle: the object's
   own identity (parents) or the inverse reference it stores (children). *)
type key_spec = K_self | K_inverse of string

(* How Fetch/Harvest evaluate their per-row work: [Packed] runs the
   offset program of {!Packed} straight on the record's page bytes,
   [Handle] decodes attributes through {!Database.get_att_slot}.  Charges
   are identical either way; the planner picks [Packed] whenever the
   predicates are packed-compilable. *)
type mode = Packed | Handle

(* A float-only record: OCaml stores its field unboxed, so adding to it
   allocates nothing (a float field of the mixed [frame] would be boxed
   afresh on every store). *)
type ms_cell = { mutable ms : float }

(* Per-operator instrumentation.  Counters are attributed by reading the
   global Tb_sim deltas between frame switches (see {!Acct}); the frame
   itself never charges anything, so execution stays bit-identical whether
   or not anyone looks at the explain output. *)
type frame = {
  mutable rows_in : int;
  mutable rows_out : int;
  mutable handles : int;  (** Handles allocated while this frame was live *)
  mutable pages_read : int;
  mutable pages_written : int;
  mutable get_atts : int;
  mutable cmps : int;
  mutable hash_ops : int;  (** hash inserts + probes *)
  mutable sort_cmps : int;
  mutable bytes : int;  (** simulated bytes claimed (hash/sort/result) *)
  clock : ms_cell;  (** simulated clock advanced while live *)
}

(* The cost stage's per-operator prediction, written by Estimate.annotate
   before execution.  Mirrors the frame {!Acct} fills during execution, in
   the units the validate stage compares: rows produced, pages touched,
   Handles allocated, simulated ms. *)
type est = {
  est_rows : float;
  est_pages : float;
  est_handles : float;
  est_ms : float;
}

type kind =
  | Seq_scan of { cls : string }
  | Index_scan of { index : Index_def.t; lo : int option; hi : int option }
  | Sort_rids of { child : t }
      (** buffer + sort the child's Rids (Figure 8 right) *)
  | Fetch of {
      child : t;
      cls : string;
      var : string;
      preds : Plan.attr_pred list;
      covering : bool;
          (** no residual predicates and only the identity is needed: skip
              Handles entirely (the covering-index shortcut) *)
      mode : mode;
    }
  | Nav_set of {
      child : t;
      set_attr : string;
      owner_cls : string;
      nav_var : string;
      nav_cls : string;
      preds : Plan.attr_pred list;
    }  (** parent-to-child navigation through the set attribute (NL) *)
  | Nav_inverse of {
      child : t;
      inv_attr : string;
      owner_cls : string;
      nav_var : string;
      nav_cls : string;
      preds : Plan.attr_pred list;
    }  (** child-to-parent navigation through the inverse (NOJOIN) *)
  | Harvest of {
      child : t;
      key : key_spec;
      cls : string;
      attrs : string list;
      mode : mode;
    }  (** slot-compiled (key, payload) extraction from live Handles *)
  | Hash_build of { child : t }
  | Spill_partition of { child : t; partitions : int }
      (** hybrid hashing: bucket 0 flows through, buckets 1.. spill to
          temporary heap files *)
  | Hash_probe of {
      build : t;
      probe : t;
      probe_key : key_spec;
      probe_cls : string;
      build_var : string;
      probe_var : string;
    }
  | Sort of { child : t }  (** buffer + external-sort (key, payload) runs *)
  | Merge of { left : t; right : t; left_var : string; right_var : string }
  | Project of { child : t; select : Oql_ast.expr }
  | Materialize of { child : t; aggregate : Oql_ast.agg option }
  | Shard_lane of { child : t; shard : int; shards : int }
      (** one shard's subplan: everything under it runs on that shard's
          clock lane *)
  | Exchange of { child : t; shards : int; part_key : string }
      (** hash-repartition the child's (key, payload) stream across shard
          lanes; charges the page-batched shipping RPCs *)
  | Gather of { lanes : t array; shards : int; part_key : string; ordered : bool }
      (** merge N shard lanes after the join point; order-preserving
          (streamed merge on the sort key) when [ordered] *)

and t = { kind : kind; mutable frame : frame; mutable est : est option }

let fresh_frame () =
  {
    rows_in = 0;
    rows_out = 0;
    handles = 0;
    pages_read = 0;
    pages_written = 0;
    get_atts = 0;
    cmps = 0;
    hash_ops = 0;
    sort_cmps = 0;
    bytes = 0;
    clock = { ms = 0.0 };
  }

(* Every node starts on this one frame, so a tree that is only costed owns
   no run state; [reset_frames] refuses a node still on it. *)
let shared_frame = fresh_frame ()

let make kind = { kind; frame = shared_frame; est = None }
let has_frame node = node.frame != shared_frame

let children node =
  match node.kind with
  | Seq_scan _ | Index_scan _ -> []
  | Sort_rids { child }
  | Fetch { child; _ }
  | Nav_set { child; _ }
  | Nav_inverse { child; _ }
  | Harvest { child; _ }
  | Hash_build { child }
  | Spill_partition { child; _ }
  | Sort { child }
  | Project { child; _ }
  | Materialize { child; _ }
  | Shard_lane { child; _ }
  | Exchange { child; _ } ->
      [ child ]
  | Hash_probe { build; probe; _ } -> [ build; probe ]
  | Merge { left; right; _ } -> [ left; right ]
  | Gather { lanes; _ } -> Array.to_list lanes

(* Recurses on [kind] directly: [children] would cons a list at every node,
   and [reset_frames] walks the tree on every run. *)
let rec iter f node =
  f node;
  match node.kind with
  | Seq_scan _ | Index_scan _ -> ()
  | Sort_rids { child }
  | Fetch { child; _ }
  | Nav_set { child; _ }
  | Nav_inverse { child; _ }
  | Harvest { child; _ }
  | Hash_build { child }
  | Spill_partition { child; _ }
  | Sort { child }
  | Project { child; _ }
  | Materialize { child; _ }
  | Shard_lane { child; _ }
  | Exchange { child; _ } ->
      iter f child
  | Hash_probe { build = a; probe = b; _ } | Merge { left = a; right = b; _ } ->
      iter f a;
      iter f b
  | Gather { lanes; _ } ->
      for i = 0 to Array.length lanes - 1 do
        iter f lanes.(i)
      done

let attach_frames root =
  iter (fun n -> if not (has_frame n) then n.frame <- fresh_frame ()) root;
  root

let reset_frames node =
  iter
    (fun n ->
      let fr = n.frame in
      if fr == shared_frame then
        invalid_arg "Op.reset_frames: a node has no frame (Op.attach_frames)";
      fr.rows_in <- 0;
      fr.rows_out <- 0;
      fr.handles <- 0;
      fr.pages_read <- 0;
      fr.pages_written <- 0;
      fr.get_atts <- 0;
      fr.cmps <- 0;
      fr.hash_ops <- 0;
      fr.sort_cmps <- 0;
      fr.bytes <- 0;
      fr.clock.ms <- 0.0)
    node

let opcode node =
  match node.kind with
  | Seq_scan _ -> "seq_scan"
  | Index_scan _ -> "index_scan"
  | Sort_rids _ -> "sort_rids"
  | Fetch _ -> "fetch"
  | Nav_set _ -> "nav_set"
  | Nav_inverse _ -> "nav_inverse"
  | Harvest _ -> "harvest"
  | Hash_build _ -> "hash_build"
  | Spill_partition _ -> "spill_partition"
  | Hash_probe _ -> "hash_probe"
  | Sort _ -> "sort"
  | Merge _ -> "merge"
  | Project _ -> "project"
  | Materialize _ -> "materialize"
  | Shard_lane _ -> "shard_lane"
  | Exchange _ -> "exchange"
  | Gather _ -> "gather"

let key_name = function
  | K_self -> "self"
  | K_inverse attr -> "inverse." ^ attr

let pred_count = function [] -> "" | ps -> Printf.sprintf "[%d preds]" (List.length ps)
let mode_name = function Packed -> "packed" | Handle -> "handle"

let label node =
  match node.kind with
  | Seq_scan { cls } -> Printf.sprintf "seq_scan(%s)" cls
  | Index_scan { index; lo; hi } ->
      Printf.sprintf "index_scan(%s)[%s,%s)" index.Index_def.name
        (match lo with Some k -> string_of_int k | None -> "-inf")
        (match hi with Some k -> string_of_int k | None -> "+inf")
  | Sort_rids _ -> "sort_rids"
  | Fetch { cls; var; preds; covering; mode; _ } ->
      if covering then
        Printf.sprintf "fetch(%s:%s)%s covering" var cls (pred_count preds)
      else
        Printf.sprintf "fetch(%s:%s)%s mode=%s" var cls (pred_count preds)
          (mode_name mode)
  | Nav_set { set_attr; nav_var; nav_cls; preds; _ } ->
      Printf.sprintf "nav_set(.%s -> %s:%s)%s" set_attr nav_var nav_cls
        (pred_count preds)
  | Nav_inverse { inv_attr; nav_var; nav_cls; preds; _ } ->
      Printf.sprintf "nav_inverse(.%s -> %s:%s)%s" inv_attr nav_var nav_cls
        (pred_count preds)
  | Harvest { key; attrs; mode; _ } ->
      Printf.sprintf "harvest(key=%s; attrs=[%s]) mode=%s" (key_name key)
        (String.concat "," attrs) (mode_name mode)
  | Hash_build _ -> "hash_build"
  | Spill_partition { partitions; _ } ->
      Printf.sprintf "spill_partition(%d)" partitions
  | Hash_probe { probe_key; build_var; probe_var; _ } ->
      Printf.sprintf "hash_probe(%s with %s, key=%s)" build_var probe_var
        (key_name probe_key)
  | Sort _ -> "sort"
  | Merge { left_var; right_var; _ } ->
      Printf.sprintf "merge(%s, %s)" left_var right_var
  | Project _ -> "project"
  | Materialize { aggregate = None; _ } -> "materialize"
  | Materialize { aggregate = Some a; _ } ->
      Printf.sprintf "aggregate(%s)" (Oql_ast.agg_name a)
  | Shard_lane { shard; shards; _ } ->
      Printf.sprintf "shard[%d/%d]" shard shards
  | Exchange { shards; part_key; _ } ->
      Printf.sprintf "exchange(shards=%d, key=%s)" shards part_key
  | Gather { shards; part_key; ordered; _ } ->
      Printf.sprintf "gather(shards=%d, key=%s, %s)" shards part_key
        (if ordered then "ordered" else "unordered")

let pp_tree ppf node =
  let rec go indent n =
    Format.fprintf ppf "%s%s@." indent (label n);
    List.iter (go (indent ^ "  ")) (children n)
  in
  go "" node

(* --- reconciliation against the global counters --- *)

type totals = {
  t_handles : int;
  t_pages_read : int;
  t_pages_written : int;
  t_get_atts : int;
  t_cmps : int;
  t_hash_ops : int;
  t_sort_cmps : int;
  t_ms : float;
}

let sum_frames node =
  let acc =
    ref
      {
        t_handles = 0;
        t_pages_read = 0;
        t_pages_written = 0;
        t_get_atts = 0;
        t_cmps = 0;
        t_hash_ops = 0;
        t_sort_cmps = 0;
        t_ms = 0.0;
      }
  in
  iter
    (fun n ->
      let f = n.frame and a = !acc in
      acc :=
        {
          t_handles = a.t_handles + f.handles;
          t_pages_read = a.t_pages_read + f.pages_read;
          t_pages_written = a.t_pages_written + f.pages_written;
          t_get_atts = a.t_get_atts + f.get_atts;
          t_cmps = a.t_cmps + f.cmps;
          t_hash_ops = a.t_hash_ops + f.hash_ops;
          t_sort_cmps = a.t_sort_cmps + f.sort_cmps;
          t_ms = a.t_ms +. f.clock.ms;
        })
    node;
  !acc

let ms_close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)

let reconciles ~global node =
  let s = sum_frames node in
  s.t_handles = global.t_handles
  && s.t_pages_read = global.t_pages_read
  && s.t_pages_written = global.t_pages_written
  && s.t_get_atts = global.t_get_atts
  && s.t_cmps = global.t_cmps
  && s.t_hash_ops = global.t_hash_ops
  && s.t_sort_cmps = global.t_sort_cmps
  && ms_close s.t_ms global.t_ms

let report_line ppf ~name ~depth fr =
  Format.fprintf ppf "%-46s %9d %9d %7d %6d %6d %8d %9d %8d %9d %10d %11.3f@."
    (String.make (2 * depth) ' ' ^ name)
    fr.rows_in fr.rows_out fr.handles fr.pages_read fr.pages_written
    fr.get_atts fr.cmps fr.hash_ops fr.sort_cmps fr.bytes fr.clock.ms

let pp_report ~global ppf node =
  Format.fprintf ppf "%-46s %9s %9s %7s %6s %6s %8s %9s %8s %9s %10s %11s@."
    "operator" "rows_in" "rows_out" "handles" "pg_r" "pg_w" "get_att" "cmp"
    "hash" "sort_cmp" "bytes" "ms";
  let rec go depth n =
    report_line ppf ~name:(label n) ~depth n.frame;
    List.iter (go (depth + 1)) (children n)
  in
  go 0 node;
  let s = sum_frames node in
  let line tag (t : totals) =
    Format.fprintf ppf "%-46s %9s %9s %7d %6d %6d %8d %9d %8d %9d %10s %11.3f@."
      tag "" "" t.t_handles t.t_pages_read t.t_pages_written t.t_get_atts
      t.t_cmps t.t_hash_ops t.t_sort_cmps "" t.t_ms
  in
  line "= operator totals" s;
  line "= global counter deltas" global;
  Format.fprintf ppf "= reconciled: %s@."
    (if reconciles ~global node then "yes (integer columns exact)" else "NO")

(* --- charge attribution ---

   One rolling snapshot of the counters the explain output reports, plus
   the simulated clock.  [enter] attributes everything that accrued since
   the last switch to the frame that was current, then makes the new frame
   current.  Read-only: attribution never touches the counters themselves,
   so the charge stream is identical with or without instrumentation. *)
module Acct = struct
  type acct = {
    sim : Sim.t;
    mutable cur : frame;
    s_ms : ms_cell; (* unboxed, like the frames' clocks *)
    mutable s_dr : int;
    mutable s_dw : int;
    mutable s_ha : int;
    mutable s_ga : int;
    mutable s_cmp : int;
    mutable s_hi : int;
    mutable s_hp : int;
    mutable s_sc : int;
  }

  (* Attribution reads [work_ms], not [now_ms]: inside a fork/join scope
     the elapsed clock jumps backwards and forwards as the executor
     switches shard lanes, but total work only ever grows — and outside a
     scope the two fields are bit-identical, so unsharded explain output
     is unchanged. *)
  let now_ms sim = Tb_sim.Clock.work_ms sim.Sim.clock

  let create sim frame =
    let c = sim.Sim.counters in
    {
      sim;
      cur = frame;
      s_ms = { ms = now_ms sim };
      s_dr = c.Counters.disk_reads;
      s_dw = c.Counters.disk_writes;
      s_ha = c.Counters.handle_allocs;
      s_ga = c.Counters.get_atts;
      s_cmp = c.Counters.comparisons;
      s_hi = c.Counters.hash_inserts;
      s_hp = c.Counters.hash_probes;
      s_sc = c.Counters.sort_comparisons;
    }

  let flush t =
    let c = t.sim.Sim.counters in
    let f = t.cur in
    f.pages_read <- f.pages_read + c.Counters.disk_reads - t.s_dr;
    f.pages_written <- f.pages_written + c.Counters.disk_writes - t.s_dw;
    f.handles <- f.handles + c.Counters.handle_allocs - t.s_ha;
    f.get_atts <- f.get_atts + c.Counters.get_atts - t.s_ga;
    f.cmps <- f.cmps + c.Counters.comparisons - t.s_cmp;
    f.hash_ops <-
      f.hash_ops + c.Counters.hash_inserts - t.s_hi + c.Counters.hash_probes
      - t.s_hp;
    f.sort_cmps <- f.sort_cmps + c.Counters.sort_comparisons - t.s_sc;
    let ms = now_ms t.sim in
    f.clock.ms <- f.clock.ms +. (ms -. t.s_ms.ms);
    t.s_ms.ms <- ms;
    t.s_dr <- c.Counters.disk_reads;
    t.s_dw <- c.Counters.disk_writes;
    t.s_ha <- c.Counters.handle_allocs;
    t.s_ga <- c.Counters.get_atts;
    t.s_cmp <- c.Counters.comparisons;
    t.s_hi <- c.Counters.hash_inserts;
    t.s_hp <- c.Counters.hash_probes;
    t.s_sc <- c.Counters.sort_comparisons

  let enter t frame =
    if frame != t.cur then begin
      flush t;
      t.cur <- frame
    end
end

(* --- estimates: the cost stage's mirror of Acct ---

   Acct attributes what actually accrued; Est carries what the optimizer
   predicted would accrue.  Both hang off the same node so the validate
   stage (and the --optimize --explain report) can put the two columns side
   by side and compute per-operator q-errors. *)
module Est = struct
  let set node e = node.est <- Some e
  let get node = node.est

  (* q-error between an estimated and an accounted ms, floored at 0.01 ms
     (below the cost model's practical resolution) so near-zero pairs
     compare as exact rather than exploding the ratio. *)
  let q ~est ~actual =
    let e = Float.max 0.01 est and a = Float.max 0.01 actual in
    Float.max (e /. a) (a /. e)

  (* Pre-order, into a float-only cell: the walk allocates nothing per
     operator. *)
  let sum_ms root =
    let acc = { ms = 0.0 } in
    iter
      (fun n -> match n.est with Some e -> acc.ms <- acc.ms +. e.est_ms | None -> ())
      root;
    acc.ms

  let report_line ppf ~name ~depth n =
    let fr = n.frame in
    match n.est with
    | Some e ->
        Format.fprintf ppf "%-46s %10.0f %9d %8.0f %6d %12.3f %12.3f %8.2f@."
          (String.make (2 * depth) ' ' ^ name)
          e.est_rows fr.rows_out e.est_pages fr.pages_read e.est_ms fr.clock.ms
          (q ~est:e.est_ms ~actual:fr.clock.ms)
    | None ->
        Format.fprintf ppf "%-46s %10s %9d %8s %6d %12s %12.3f %8s@."
          (String.make (2 * depth) ' ' ^ name)
          "-" fr.rows_out "-" fr.pages_read "-" fr.clock.ms "-"

  (* Estimated-vs-actual rendering: one row per operator with the
     prediction next to the accounted frame, closing with plan-level
     totals and the worst per-operator q-error. *)
  let pp_report ~global ppf node =
    Format.fprintf ppf "%-46s %10s %9s %8s %6s %12s %12s %8s@." "operator"
      "est_rows" "rows_out" "est_pg" "pg_r" "est_ms" "ms" "q(ms)";
    let rec go depth n =
      report_line ppf ~name:(label n) ~depth n;
      List.iter (go (depth + 1)) (children n)
    in
    go 0 node;
    let est_total = sum_ms node in
    let worst = ref 1.0 in
    iter
      (fun n ->
        match n.est with
        | Some e -> worst := Float.max !worst (q ~est:e.est_ms ~actual:n.frame.clock.ms)
        | None -> ())
      node;
    Format.fprintf ppf "%-46s %10s %9s %8s %6s %12.3f %12.3f %8.2f@."
      "= plan totals" "" "" "" "" est_total global.t_ms
      (q ~est:est_total ~actual:global.t_ms);
    Format.fprintf ppf "= worst operator q-error: %.2f@." !worst
end
