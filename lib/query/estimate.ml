type organization =
  | Separate_files
  | Shared_random
  | Shared_composition
  | Assoc_clustered

type side = {
  card : int;
  pages : int;
  sel : float;
  has_index : bool;
  index_clustered : bool;
  payload_bytes : int;
}

type env = {
  cost : Tb_sim.Cost_model.t;
  organization : organization;
  client_cache_pages : int;
  parent : side;
  child : side;
  fanout : float;
  result_bytes_per_row : int;
}

let fi = float_of_int

(* The small float helpers are inlined wherever the cost stage calls them,
   so their results reach the caller unboxed. *)

(* Effective cost of moving one cold page up to the client: disk read plus
   the RPC that ships it. *)
let[@inline] cold_page_ms cost =
  cost.Tb_sim.Cost_model.page_read_ms
  +. cost.Tb_sim.Cost_model.rpc_fixed_ms
  +. cost.Tb_sim.Cost_model.rpc_page_ms

let[@inline] handle_pair_ms cost =
  (cost.Tb_sim.Cost_model.handle_alloc_fat_us
  +. cost.Tb_sim.Cost_model.handle_free_fat_us)
  /. 1000.0

(* Yao/Cardenas-style approximation, clamped at its boundaries: an empty
   file (or a non-positive reference count) touches nothing, and once [n]
   reaches the file's total row count every page must be touched — the
   exponential form alone never quite reaches [pages], understating full
   sweeps.  [rows_per_page] is infinity (no saturation) for callers
   without row-density statistics. *)
let[@inline] distinct_pages ~rows_per_page ~n ~pages =
  if pages <= 0.0 || n <= 0.0 then 0.0
  else if n >= pages *. rows_per_page then pages
  else pages *. (1.0 -. exp (-.n /. pages))

let[@inline] random_fetch_ms ~rows_per_page ~cost ~n ~pages ~cache =
  if n <= 0.0 then 0.0
  else begin
    let d = distinct_pages ~rows_per_page ~n ~pages in
    (* First touches read [d] pages; re-touches miss in proportion to how
       much of the file the cache cannot hold. *)
    let retouches = Float.max 0.0 (n -. d) in
    let miss = Float.max 0.0 ((pages -. cache) /. pages) in
    ((d +. (retouches *. miss)) *. cold_page_ms cost)
    +. (retouches *. (1.0 -. miss) *. cost.Tb_sim.Cost_model.client_hit_ms)
  end

let[@inline] seq_ms cost pages = fi pages *. cold_page_ms cost

let[@inline] sort_ms cost n =
  if n <= 1.0 then 0.0
  else n *. (log n /. log 2.0) *. cost.Tb_sim.Cost_model.sort_cmp_us /. 1000.0

let[@inline] append_ms cost n =
  n *. cost.Tb_sim.Cost_model.result_append_standard_us /. 1000.0

(* Leaf pages an index scan of [n] entries touches (~200 entries/leaf). *)
let[@inline] leaf_pages n = ceil (n /. 200.0)

(* Thrash penalty for [ops] random operations against working structures of
   [bytes] resident bytes — mirrors Sim's fault accounting. *)
let[@inline] swap_ms cost ~bytes ~ops =
  let avail = fi (Tb_sim.Cost_model.available_bytes cost) in
  if avail <= 0.0 then 0.0
  else
    let excess = Float.max 0.0 ((bytes -. avail) /. avail) in
    let p = Float.min 1.0 (excess *. cost.Tb_sim.Cost_model.thrash_factor) in
    ops *. p *. cost.Tb_sim.Cost_model.swap_fault_ms

(* --- selections (single side: we use [parent]) --- *)

let selection_seq_ms env =
  let c = env.cost and s = env.parent in
  let n = fi s.card in
  seq_ms c s.pages +. (n *. handle_pair_ms c) +. append_ms c (s.sel *. n)

let selection_index_ms env ~sorted =
  let c = env.cost and s = env.parent in
  let k = s.sel *. fi s.card in
  let leaf = leaf_pages k *. cold_page_ms c in
  let fetch =
    if s.index_clustered then
      (* Contiguous keys sit on contiguous pages. *)
      s.sel *. fi s.pages *. cold_page_ms c
    else if sorted then
      distinct_pages ~rows_per_page:infinity ~n:k ~pages:(fi s.pages) *. cold_page_ms c
    else
      random_fetch_ms ~rows_per_page:infinity ~cost:c ~n:k ~pages:(fi s.pages)
        ~cache:(fi env.client_cache_pages)
  in
  let sort = if sorted then sort_ms c k else 0.0 in
  leaf +. fetch +. sort +. (k *. handle_pair_ms c) +. append_ms c k

(* --- joins --- *)

(* Pages to read one side's selected objects through its (sorted) index, or
   by scanning.  Under a shared file, touching a fraction of an extent
   means touching that fraction of the whole file. *)
let side_read_ms env s =
  let c = env.cost in
  let k = s.sel *. fi s.card in
  if s.has_index then
    let data =
      if s.index_clustered then s.sel *. fi s.pages
      else distinct_pages ~rows_per_page:infinity ~n:k ~pages:(fi s.pages)
    in
    (leaf_pages k +. data) *. cold_page_ms c
  else seq_ms c s.pages

let result_rows env =
  env.parent.sel *. env.child.sel *. fi env.child.card

(* Resident result memory: the collection spills sequentially past physical
   memory, so at most ~RAM of it stays resident. *)
let result_mem env =
  Float.min
    (result_rows env *. fi env.result_bytes_per_row)
    (0.9 *. fi (Tb_sim.Cost_model.available_bytes env.cost))

let join_ms env algo =
  let c = env.cost in
  let p = env.parent and ch = env.child in
  let np_sel = p.sel *. fi p.card in
  let nc_sel = ch.sel *. fi ch.card in
  let rows = result_rows env in
  let build_result = append_ms c rows in
  match algo with
  | Plan.NL ->
      (* Parents through their index; every child of a selected parent is
         fetched and tested. *)
      let children_touched = np_sel *. env.fanout in
      let parent_read = side_read_ms env p in
      let child_read =
        match env.organization with
        | Shared_composition ->
            (* The children sit on the pages the parent sweep already
               read. *)
            0.0
        | Assoc_clustered ->
            (* Children live in their own file but in parent order: the
               fetches are one sequential sweep over the touched slice. *)
            let per_page = Float.max 1.0 (fi ch.card /. Float.max 1.0 (fi ch.pages)) in
            children_touched /. per_page *. cold_page_ms c
        | Separate_files | Shared_random ->
            random_fetch_ms ~rows_per_page:infinity ~cost:c ~n:children_touched
              ~pages:(fi ch.pages) ~cache:(fi env.client_cache_pages)
      in
      parent_read +. child_read
      +. ((np_sel +. children_touched) *. handle_pair_ms c)
      +. build_result
      +. swap_ms c ~bytes:(result_mem env) ~ops:0.0
  | Plan.NOJOIN ->
      (* Children through their index; one parent navigation per selected
         child. *)
      let child_read = side_read_ms env ch in
      let parent_read =
        match env.organization with
        | Shared_composition -> 0.0 (* the parent is on a nearby page *)
        | Assoc_clustered ->
            (* Children arrive in parent order, so parent fetches sweep the
               parent file at most once. *)
            distinct_pages ~rows_per_page:infinity ~n:nc_sel ~pages:(fi p.pages)
            *. cold_page_ms c
        | Separate_files | Shared_random ->
            random_fetch_ms ~rows_per_page:infinity ~cost:c ~n:nc_sel
              ~pages:(fi p.pages) ~cache:(fi env.client_cache_pages)
      in
      (* Distinct parents get a Handle; repeats are resident hits. *)
      let parent_handles = Float.min nc_sel (fi p.card) in
      child_read +. parent_read
      +. ((nc_sel +. parent_handles) *. handle_pair_ms c)
      +. build_result
      +. swap_ms c ~bytes:(result_mem env) ~ops:0.0
  | Plan.PHJ ->
      let table_bytes =
        np_sel *. fi (p.payload_bytes + Mem_hash.entry_overhead + Mem_hash.group_overhead)
      in
      let mem = table_bytes +. result_mem env in
      side_read_ms env p +. side_read_ms env ch
      +. ((np_sel +. nc_sel) *. handle_pair_ms c)
      +. (np_sel *. c.Tb_sim.Cost_model.hash_insert_us /. 1000.0)
      +. (nc_sel *. c.Tb_sim.Cost_model.hash_probe_us /. 1000.0)
      +. build_result
      +. swap_ms c ~bytes:mem ~ops:(np_sel +. nc_sel)
  | Plan.CHJ ->
      let groups = Float.min np_sel (fi p.card) in
      let table_bytes =
        (nc_sel *. fi (ch.payload_bytes + Mem_hash.entry_overhead))
        +. (groups *. fi Mem_hash.group_overhead)
      in
      let mem = table_bytes +. result_mem env in
      side_read_ms env p +. side_read_ms env ch
      +. ((np_sel +. nc_sel) *. handle_pair_ms c)
      +. (nc_sel *. c.Tb_sim.Cost_model.hash_insert_us /. 1000.0)
      +. (np_sel *. c.Tb_sim.Cost_model.hash_probe_us /. 1000.0)
      +. build_result
      +. swap_ms c ~bytes:mem ~ops:(np_sel +. nc_sel)
  | Plan.PHHJ | Plan.CHHJ ->
      (* Hybrid hashing: instead of swapping, the overflow fraction of both
         sides is written out and read back once. *)
      let build_n, probe_n, build_payload, probe_payload =
        if algo = Plan.PHHJ then (np_sel, nc_sel, p.payload_bytes, ch.payload_bytes)
        else (nc_sel, np_sel, ch.payload_bytes, p.payload_bytes)
      in
      let table_bytes =
        build_n *. fi (build_payload + Mem_hash.entry_overhead + Mem_hash.group_overhead)
      in
      let budget = 0.8 *. fi (Tb_sim.Cost_model.available_bytes c) in
      let sf =
        if budget <= 0.0 then 1.0
        else Float.max 0.0 (1.0 -. (budget /. table_bytes))
      in
      let spill_bytes =
        sf *. ((build_n *. fi (build_payload + 20)) +. (probe_n *. fi (probe_payload + 20)))
      in
      let spill_io =
        2.0 *. spill_bytes /. fi c.Tb_sim.Cost_model.page_size *. cold_page_ms c
      in
      side_read_ms env p +. side_read_ms env ch
      +. ((np_sel +. nc_sel) *. handle_pair_ms c)
      +. (build_n *. c.Tb_sim.Cost_model.hash_insert_us *. (1.0 +. sf) /. 1000.0)
      +. (probe_n *. c.Tb_sim.Cost_model.hash_probe_us *. (1.0 +. sf) /. 1000.0)
      +. spill_io +. build_result
  | Plan.SMJ ->
      let run_ms n bytes =
        let sorted = sort_ms c n in
        let avail = fi (Tb_sim.Cost_model.available_bytes c) in
        let external_io =
          if bytes > avail && avail > 0.0 then
            let passes = ceil (log (bytes /. avail) /. log 8.0) in
            2.0 *. passes *. bytes /. fi c.Tb_sim.Cost_model.page_size
            *. cold_page_ms c
          else 0.0
        in
        sorted +. external_io
      in
      let p_bytes = np_sel *. fi (p.payload_bytes + 16) in
      let c_bytes = nc_sel *. fi (ch.payload_bytes + 16) in
      side_read_ms env p +. side_read_ms env ch
      +. ((np_sel +. nc_sel) *. handle_pair_ms c)
      +. run_ms np_sel p_bytes +. run_ms nc_sel c_bytes
      +. ((np_sel +. nc_sel) *. c.Tb_sim.Cost_model.compare_us /. 1000.0)
      +. build_result

let all_algos =
  [ Plan.NL; Plan.NOJOIN; Plan.PHJ; Plan.CHJ; Plan.PHHJ; Plan.CHHJ; Plan.SMJ ]

let rank_joins env =
  List.sort
    (fun (_, a) (_, b) -> Float.compare a b)
    (List.map (fun a -> (a, join_ms env a)) all_algos)

(* ===== per-operator estimation: the optimizer's cost stage =====

   The closed forms above predict a whole query at once; the optimizer
   pipeline needs the same components attached to the operators that will
   actually accrue them, so the validate stage can reconcile prediction
   against the accounted frames node by node.  [annotate] walks a lowered
   tree bottom-up, threading an estimated row stream, and writes one
   {!Op.est} per node; every ms figure passes through the catalog's
   per-key correction before landing, which is what makes repeated queries
   converge after feedback.  Pure arithmetic over {!Tb_statcore}
   statistics: no database access, no charges (treelint R1 keeps costing
   code out of the charging set). *)

module Sc = Tb_statcore.Stat_catalog

(* Feedback key: opcode plus the class the operator works over — stable
   across re-lowerings of the same logical plan, and distinct between the
   two sides of a join (parent and child classes differ). *)
let rec est_cls (n : Op.t) =
  match n.Op.kind with
  | Op.Seq_scan { cls } -> cls
  | Op.Index_scan { cls; _ } -> cls
  | Op.Fetch { cls; _ } -> cls
  | Op.Harvest { cls; _ } -> cls
  | Op.Nav_set { nav_cls; _ } -> nav_cls
  | Op.Nav_inverse { nav_cls; _ } -> nav_cls
  | Op.Hash_probe { probe_cls; _ } -> probe_cls
  | Op.Sort_rids { child }
  | Op.Hash_build { child }
  | Op.Spill_partition { child; _ }
  | Op.Sort { child }
  | Op.Project { child; _ }
  | Op.Materialize { child; _ }
  | Op.Shard_lane { child; _ }
  | Op.Exchange { child; _ } ->
      est_cls child
  | Op.Merge { left; _ } -> est_cls left
  | Op.Gather { lanes; _ } ->
      if Array.length lanes = 0 then "" else est_cls lanes.(0)

let est_key n = Op.opcode n ^ "/" ^ est_cls n

(* What flows between operators during estimation: a row count plus the
   physical context downstream fetch costing needs.  [annotate] makes one
   of each record per call: every operator reads what its child left in
   them and overwrites it with its own output.  The floats sit in a
   float-only record, so storing one boxes nothing. *)
type flow = {
  mutable s_rows : float;
  mutable s_bytes : float;  (** per-row payload bytes once harvested *)
  mutable s_spill : float;  (** spill fraction applied below (hybrid hashing) *)
}

type ctx = {
  mutable s_cls : string;
  mutable s_sorted : bool;  (** rid stream in page order (Sort_rids below) *)
  mutable s_seq : bool;  (** rows arrive off a sequential sweep: pages resident *)
  mutable s_clustered : bool;  (** rows located through a clustered index *)
  mutable s_slot : int;  (** the next operator's pre-order position *)
}

(* A fresh stream, no spill below it. *)
let[@inline] stream f x ~cls ~rows ~sorted ~seq ~clustered ~bytes =
  f.s_rows <- rows;
  f.s_bytes <- bytes;
  f.s_spill <- 0.0;
  x.s_cls <- cls;
  x.s_sorted <- sorted;
  x.s_seq <- seq;
  x.s_clustered <- clustered

let null_extent cls =
  {
    Sc.x_cls = cls;
    x_card = 0;
    x_pages = 0;
    x_rows_per_page = 0.0;
    x_file = -1;
  }

let cat_extent stats cls =
  match Sc.find_extent stats ~cls with
  | e -> e
  | exception Not_found -> null_extent cls

(* One row of the extent: a point lookup should not be costed as if it
   returned a fixed fraction of the extent. *)
let[@inline] one_row stats cls = 1.0 /. Float.max 1.0 (fi (cat_extent stats cls).Sc.x_card)

(* System-R style magic numbers when no statistics help. *)
let magic_sel (p : Plan.attr_pred) =
  match p.Plan.cmp with
  | Oql_ast.Eq -> 0.01
  | Oql_ast.Ne -> 0.99
  | Oql_ast.Lt | Oql_ast.Le | Oql_ast.Gt | Oql_ast.Ge -> 1.0 /. 3.0

let pred_sel ?floor stats ~cls (p : Plan.attr_pred) =
  match Plan.key_range p with
  | None -> magic_sel p
  | Some (lo, hi) -> (
      match Sc.find_index stats ~cls ~attr:p.Plan.attr with
      | ix ->
          let floor = match floor with Some f -> f | None -> one_row stats cls in
          Float.max floor (Sc.key_window ix ~lo ~hi)
      | exception Not_found -> magic_sel p)

(* The product in conjunct order, as a loop over a local cell: no fold
   closure, no boxed accumulator. *)
let preds_sel ?floor stats ~cls preds =
  let acc = ref 1.0 and rest = ref preds in
  while
    match !rest with
    | [] -> false
    | p :: tl ->
        acc := !acc *. pred_sel ?floor stats ~cls p;
        rest := tl;
        true
  do
    ()
  done;
  !acc

let rec payload_bytes_in stats cls acc = function
  | [] -> acc
  | a :: rest -> payload_bytes_in stats cls (acc + Sc.attr_bytes stats ~cls a) rest

let payload_bytes stats ~cls attrs =
  payload_bytes_in stats cls Tb_storage.Rid.on_disk_bytes attrs

(* A plan's cost program: its operators' correction keys and raw ms, each
   at the operator's pre-order position. *)
type program = { p_op : string array; p_cls : string array; p_raw : float array }

(* Write [n]'s estimate, its ms through the catalog's correction; or, on a
   walk [into] a program, [n]'s key and raw ms at its pre-order [slot].
   Inlined, so the floats reach the estimate unboxed. *)
let[@inline] set into stats n slot ~rows ~pages ~handles raw_ms =
  match into with
  | Some p ->
      p.p_op.(slot) <- Op.opcode n;
      p.p_cls.(slot) <- est_cls n;
      p.p_raw.(slot) <- raw_ms
  | None ->
      let corr = Sc.correction stats ~op:(Op.opcode n) ~cls:(est_cls n) in
      Op.Est.set n
        {
          Op.est_rows = rows;
          est_pages = pages;
          est_handles = handles;
          est_ms = (raw_ms *. corr.Sc.c_mul) +. corr.Sc.c_add;
        }

let[@inline] get_att_ms c n = n *. c.Tb_sim.Cost_model.get_att_us /. 1000.0

let walk ~into ~stats ~organization root =
  let c = Sc.cost stats in
  let cache = fi (Sc.client_cache_pages stats) in
  let avail = fi (Sc.available_bytes stats) in
  let page_sz = fi c.Tb_sim.Cost_model.page_size in
  let f = { s_rows = 0.0; s_bytes = 0.0; s_spill = 0.0 } in
  let x =
    { s_cls = ""; s_sorted = false; s_seq = false; s_clustered = false; s_slot = 0 }
  in
  let rec go (stats : Sc.t) (n : Op.t) =
    let slot = x.s_slot in
    x.s_slot <- slot + 1;
    match n.Op.kind with
    | Op.Seq_scan { cls } ->
        let e = cat_extent stats cls in
        let rows = fi e.Sc.x_card in
        set into stats n slot ~rows ~pages:(fi e.Sc.x_pages) ~handles:0.0
          (seq_ms c e.Sc.x_pages);
        stream f x ~cls ~rows ~sorted:false ~seq:true ~clustered:false ~bytes:0.0
    | Op.Index_scan { cls; attr; lo; hi } ->
        let sel =
          match Sc.find_index stats ~cls ~attr with
          | ix -> Float.max (one_row stats cls) (Sc.key_window ix ~lo ~hi)
          | exception Not_found -> 1.0 /. 3.0
        in
        let clustered =
          match Sc.find_index stats ~cls ~attr with
          | ix -> Sc.is_clustered ix
          | exception Not_found -> false
        in
        let k = sel *. fi (cat_extent stats cls).Sc.x_card in
        (* Leaf pages plus the root-to-leaf descent that positions the
           cursor. *)
        let leaves = leaf_pages k +. 1.0 in
        set into stats n slot ~rows:k ~pages:leaves ~handles:0.0
          (leaves *. cold_page_ms c);
        stream f x ~cls ~rows:k ~sorted:false ~seq:false ~clustered ~bytes:0.0
    | Op.Sort_rids { child } ->
        go stats child;
        set into stats n slot ~rows:f.s_rows ~pages:0.0 ~handles:0.0 (sort_ms c f.s_rows);
        x.s_sorted <- true
    | Op.Fetch { child; cls; preds; covering; _ } ->
        go stats child;
        if covering then begin
          set into stats n slot ~rows:f.s_rows ~pages:0.0 ~handles:0.0 0.0;
          x.s_cls <- cls
        end
        else begin
          let e = cat_extent stats cls in
          let n_in = f.s_rows in
          let rows = n_in *. preds_sel stats ~cls preds in
          let pages = fi e.Sc.x_pages in
          (* Records off a sequential sweep sit on the pages the scan
             cursor just shipped. *)
          let io_pages =
            if x.s_seq then 0.0
            else if x.s_clustered then
              Float.min pages (n_in /. Float.max 1.0 (fi e.Sc.x_card) *. pages)
            else distinct_pages ~rows_per_page:e.Sc.x_rows_per_page ~n:n_in ~pages
          in
          let io_ms =
            if x.s_seq then n_in *. c.Tb_sim.Cost_model.client_hit_ms
            else if x.s_clustered || x.s_sorted then io_pages *. cold_page_ms c
            else
              random_fetch_ms ~rows_per_page:e.Sc.x_rows_per_page ~cost:c ~n:n_in
                ~pages ~cache
          in
          let ms =
            io_ms
            +. (n_in *. handle_pair_ms c)
            +. get_att_ms c (n_in *. fi (List.length preds))
          in
          set into stats n slot ~rows ~pages:io_pages ~handles:n_in ms;
          stream f x ~cls ~rows ~sorted:x.s_sorted ~seq:false ~clustered:x.s_clustered
            ~bytes:0.0
        end
    | Op.Nav_set { child; nav_cls; preds; _ } ->
        go stats child;
        let pe = cat_extent stats x.s_cls in
        let ce = cat_extent stats nav_cls in
        let fanout =
          if pe.Sc.x_card = 0 then 0.0
          else fi ce.Sc.x_card /. fi pe.Sc.x_card
        in
        let touched = f.s_rows *. fanout in
        let rows = touched *. preds_sel stats ~cls:nav_cls preds in
        let cpages = fi ce.Sc.x_pages in
        let io_pages =
          match organization with
          | Shared_composition -> 0.0
          | Assoc_clustered ->
              touched /. Float.max 1.0 (fi ce.Sc.x_card /. Float.max 1.0 cpages)
          | Separate_files | Shared_random ->
              distinct_pages ~rows_per_page:ce.Sc.x_rows_per_page ~n:touched
                ~pages:cpages
        in
        let io_ms =
          match organization with
          | Shared_composition -> touched *. c.Tb_sim.Cost_model.client_hit_ms
          | Assoc_clustered -> io_pages *. cold_page_ms c
          | Separate_files | Shared_random ->
              random_fetch_ms ~rows_per_page:ce.Sc.x_rows_per_page ~cost:c
                ~n:touched ~pages:cpages ~cache
        in
        let ms =
          io_ms
          +. (touched *. handle_pair_ms c)
          +. get_att_ms c (f.s_rows +. (touched *. fi (List.length preds)))
        in
        set into stats n slot ~rows ~pages:io_pages ~handles:touched ms;
        stream f x ~cls:nav_cls ~rows ~sorted:false ~seq:false ~clustered:false
          ~bytes:0.0
    | Op.Nav_inverse { child; nav_cls; preds; _ } ->
        go stats child;
        let pe = cat_extent stats nav_cls in
        let nc = f.s_rows in
        let ppages = fi pe.Sc.x_pages in
        let parent_handles = Float.min nc (fi pe.Sc.x_card) in
        let io_pages =
          match organization with
          | Shared_composition -> 0.0
          | Assoc_clustered | Separate_files | Shared_random ->
              distinct_pages ~rows_per_page:pe.Sc.x_rows_per_page ~n:nc ~pages:ppages
        in
        let io_ms =
          match organization with
          | Shared_composition -> nc *. c.Tb_sim.Cost_model.client_hit_ms
          | Assoc_clustered -> io_pages *. cold_page_ms c
          | Separate_files | Shared_random ->
              random_fetch_ms ~rows_per_page:pe.Sc.x_rows_per_page ~cost:c ~n:nc
                ~pages:ppages ~cache
        in
        let rows = nc *. preds_sel stats ~cls:nav_cls preds in
        let ms =
          io_ms
          +. (parent_handles *. handle_pair_ms c)
          +. get_att_ms c (nc +. (nc *. fi (List.length preds)))
        in
        set into stats n slot ~rows ~pages:io_pages ~handles:parent_handles ms;
        stream f x ~cls:nav_cls ~rows ~sorted:false ~seq:false ~clustered:false
          ~bytes:0.0
    | Op.Harvest { child; cls; attrs; _ } ->
        go stats child;
        set into stats n slot ~rows:f.s_rows ~pages:0.0 ~handles:0.0
          (get_att_ms c (f.s_rows *. fi (1 + List.length attrs)));
        x.s_cls <- cls;
        f.s_bytes <- fi (payload_bytes stats ~cls attrs)
    | Op.Hash_build { child } ->
        go stats child;
        let rows = f.s_rows in
        let table_bytes =
          rows
          *. (f.s_bytes +. fi (Mem_hash.entry_overhead + Mem_hash.group_overhead))
        in
        let ms =
          (rows *. c.Tb_sim.Cost_model.hash_insert_us *. (1.0 +. f.s_spill)
          /. 1000.0)
          +.
          if f.s_spill > 0.0 then 0.0
          else swap_ms c ~bytes:table_bytes ~ops:rows
        in
        set into stats n slot ~rows ~pages:0.0 ~handles:0.0 ms
    | Op.Spill_partition { child; _ } ->
        go stats child;
        let rows = f.s_rows in
        let table_bytes =
          rows
          *. (f.s_bytes +. fi (Mem_hash.entry_overhead + Mem_hash.group_overhead))
        in
        let budget = 0.8 *. avail in
        let sf =
          if budget <= 0.0 then 1.0
          else if table_bytes <= 0.0 then 0.0
          else Float.max 0.0 (1.0 -. (budget /. table_bytes))
        in
        let spill_bytes = sf *. rows *. (f.s_bytes +. 20.0) in
        let io_pages = 2.0 *. spill_bytes /. page_sz in
        set into stats n slot ~rows ~pages:io_pages ~handles:0.0
          (io_pages *. cold_page_ms c);
        f.s_spill <- sf
    | Op.Hash_probe { build; probe; probe_key; probe_cls; _ } ->
        go stats build;
        let b_rows = f.s_rows and b_bytes = f.s_bytes and b_spill = f.s_spill in
        let b_cls = x.s_cls in
        go stats probe;
        let p_rows = f.s_rows and p_bytes = f.s_bytes and p_spill = f.s_spill in
        let rows =
          match probe_key with
          | Op.K_self ->
              (* Probing parents against a child-keyed table: each stored
                 child joins iff its parent probes. *)
              let pe = cat_extent stats probe_cls in
              b_rows *. (p_rows /. Float.max 1.0 (fi pe.Sc.x_card))
          | Op.K_inverse _ ->
              (* Probing children against a parent-keyed table. *)
              let pe = cat_extent stats b_cls in
              p_rows *. (b_rows /. Float.max 1.0 (fi pe.Sc.x_card))
        in
        let result_bytes_row = b_bytes +. p_bytes +. 16.0 in
        let result_mem = Float.min (rows *. result_bytes_row) (0.9 *. avail) in
        let table_bytes =
          b_rows
          *. (b_bytes +. fi (Mem_hash.entry_overhead + Mem_hash.group_overhead))
        in
        let ms =
          (p_rows *. c.Tb_sim.Cost_model.hash_probe_us *. (1.0 +. p_spill)
          /. 1000.0)
          +.
          if b_spill > 0.0 || p_spill > 0.0 then 0.0
          else swap_ms c ~bytes:(table_bytes +. result_mem) ~ops:p_rows
        in
        set into stats n slot ~rows ~pages:0.0 ~handles:0.0 ms;
        stream f x ~cls:probe_cls ~rows ~sorted:false ~seq:false ~clustered:false
          ~bytes:result_bytes_row
    | Op.Sort { child } ->
        go stats child;
        let rows = f.s_rows in
        let bytes = rows *. (f.s_bytes +. 16.0) in
        let external_io =
          if bytes > avail && avail > 0.0 then
            let passes = ceil (log (bytes /. avail) /. log 8.0) in
            2.0 *. passes *. bytes /. page_sz *. cold_page_ms c
          else 0.0
        in
        set into stats n slot ~rows ~pages:0.0 ~handles:0.0 (sort_ms c rows +. external_io);
        x.s_sorted <- true
    | Op.Merge { left; right; _ } ->
        go stats left;
        let l_rows = f.s_rows and l_bytes = f.s_bytes and l_cls = x.s_cls in
        go stats right;
        let pe = cat_extent stats l_cls in
        let rows = f.s_rows *. (l_rows /. Float.max 1.0 (fi pe.Sc.x_card)) in
        set into stats n slot ~rows ~pages:0.0 ~handles:0.0
          ((l_rows +. f.s_rows) *. c.Tb_sim.Cost_model.compare_us /. 1000.0);
        stream f x ~cls:l_cls ~rows ~sorted:false ~seq:false ~clustered:false
          ~bytes:(l_bytes +. f.s_bytes +. 16.0)
    | Op.Project { child; _ } ->
        go stats child;
        set into stats n slot ~rows:f.s_rows ~pages:0.0 ~handles:0.0 (get_att_ms c f.s_rows)
    | Op.Materialize { child; aggregate } ->
        go stats child;
        let rows_out =
          match aggregate with Some _ -> 1.0 | None -> f.s_rows
        in
        let ms = match aggregate with Some _ -> 0.0 | None -> append_ms c f.s_rows in
        set into stats n slot ~rows:rows_out ~pages:0.0 ~handles:0.0 ms;
        f.s_rows <- rows_out;
        f.s_bytes <- Float.max f.s_bytes 24.0
    | Op.Shard_lane { child; shards; _ } ->
        go (Sc.scale stats ~shards) child;
        set into stats n slot ~rows:f.s_rows ~pages:0.0 ~handles:0.0 0.0
    | Op.Exchange { child; shards; _ } ->
        go stats child;
        let ship_rows = f.s_rows *. fi (shards - 1) /. fi (max 1 shards) in
        let ship_pages = ship_rows *. (f.s_bytes +. 16.0) /. page_sz in
        let ms =
          (ship_pages
          *. (c.Tb_sim.Cost_model.rpc_fixed_ms +. c.Tb_sim.Cost_model.rpc_page_ms))
          +. (fi (shards - 1) *. c.Tb_sim.Cost_model.rpc_fixed_ms)
        in
        set into stats n slot ~rows:f.s_rows ~pages:0.0 ~handles:0.0 ms
    | Op.Gather { lanes; shards; ordered; _ } ->
        (* The scratch stream holds one lane at a time: fold each as walked. *)
        let rows = ref 0.0 and row_bytes = ref 24.0 and cls = ref "" in
        for i = 0 to Array.length lanes - 1 do
          go stats lanes.(i);
          rows := !rows +. f.s_rows;
          row_bytes := Float.max !row_bytes f.s_bytes;
          if i = 0 then cls := x.s_cls
        done;
        let rows = !rows and row_bytes = !row_bytes in
        let ship_pages = rows *. row_bytes /. page_sz in
        let ms =
          (fi shards *. c.Tb_sim.Cost_model.rpc_fixed_ms)
          +. (ship_pages *. c.Tb_sim.Cost_model.rpc_page_ms)
          +.
          if ordered then rows *. c.Tb_sim.Cost_model.compare_us /. 1000.0
          else 0.0
        in
        set into stats n slot ~rows ~pages:0.0 ~handles:0.0 ms;
        stream f x ~cls:!cls ~rows ~sorted:ordered ~seq:false ~clustered:false
          ~bytes:row_bytes
  in
  go stats root

let annotate ~stats ?(organization = Separate_files) root =
  walk ~into:None ~stats ~organization root

let program ~stats ~organization root =
  let n = ref 0 in
  Op.iter (fun _ -> incr n) root;
  let p = { p_op = Array.make !n ""; p_cls = Array.make !n ""; p_raw = Array.make !n 0.0 } in
  walk ~into:(Some p) ~stats ~organization root;
  p

(* [set]'s correction and [Op.Est.sum_ms]'s order, so the sum has the bits
   [plan_cost_ms] reads after [annotate]. *)
let program_cost stats p =
  let acc = ref 0.0 in
  for i = 0 to Array.length p.p_raw - 1 do
    let corr = Sc.correction stats ~op:p.p_op.(i) ~cls:p.p_cls.(i) in
    acc := !acc +. ((p.p_raw.(i) *. corr.Sc.c_mul) +. corr.Sc.c_add)
  done;
  !acc

(* Plan-level estimated elapsed: a plain sum for unsharded trees; for a
   Gather root, fork/join semantics — the slowest lane plus the gather's
   own shipping and merge (mirrors the simulated clock's lane model). *)
let plan_cost_ms (root : Op.t) =
  match root.Op.kind with
  | Op.Gather { lanes; _ } ->
      let own =
        match Op.Est.get root with Some e -> e.Op.est_ms | None -> 0.0
      in
      Array.fold_left
        (fun acc lane -> Float.max acc (Op.Est.sum_ms lane))
        0.0 lanes
      +. own
  | _ -> Op.Est.sum_ms root
