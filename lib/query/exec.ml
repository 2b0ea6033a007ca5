(* The physical-plan interpreter.

   One small recursive walk drives the operator tree {!Planner.lower}
   assembles: rid streams (scans), binding streams (fetch / navigation /
   joins), (key, payload) streams (harvests) and value streams
   (projection) are pushed bottom-up through emit callbacks, which keeps
   the charge order — Handle lifetimes, page-fetch interleaving, hash and
   sort traffic — identical to the monolithic drivers this replaced.

   A row is not a value but the run's register file ({!Op.regs}): each
   operator resolves the registers and slots it reads and writes when it
   starts, and per row it only writes its cell and calls downstream.  Because
   emission is a depth-first push, no operator sees a row after its emit
   call returns, so the one register file is reused for every row.

   Charge discipline (treelint R1): this module never charges the cost
   model itself.  All Sim charges happen inside the engine components it
   calls (Database, Btree, Heap_file, Mem_hash, Query_result) and the
   operator kernels in {!Operators}.  The interpreter only switches the
   accounting frame ({!Op.Acct.enter}) so the charges land on the operator
   responsible for them. *)

module Value = Tb_store.Value
module Database = Tb_store.Database
module Heap_file = Tb_storage.Heap_file
module Rid = Tb_storage.Rid
module Counters = Tb_sim.Counters

(* The run's state: the register file its rows live in, and the plan
   variable each register holds.  Registers are handed out as operators
   set up, in the order they first name a variable. *)
type state = {
  db : Database.t;
  acct : Op.Acct.acct;
  vars : string array;
  mutable nvars : int;
  regs : Op.regs;
}

(* How many variables a tree binds at most: one per binding operator, two
   per join that binds both sides.  Counted without allocating, since a
   one-row query pays for its state as much as for its row. *)
let rec binders node =
  match node.Op.kind with
  | Op.Fetch _ -> 1
  | Op.Nav_set { child; _ } | Op.Nav_inverse { child; _ } -> 1 + binders child
  | Op.Hash_probe { build = a; probe = b; _ } | Op.Merge { left = a; right = b; _ }
    ->
      2 + binders a + binders b
  | Op.Harvest { child; _ }
  | Op.Hash_build { child }
  | Op.Spill_partition { child; _ }
  | Op.Sort { child }
  | Op.Exchange { child; _ }
  | Op.Project { child; _ }
  | Op.Materialize { child; _ } ->
      binders child
  | Op.Seq_scan _ | Op.Index_scan _ | Op.Sort_rids _ | Op.Shard_lane _
  | Op.Gather _ ->
      0

let state db acct root =
  let n = binders root in
  { db; acct; vars = Array.make n ""; nvars = 0; regs = Op.make_regs n }

let reg st v =
  let rec go i =
    if i = st.nvars then begin
      if i = Array.length st.vars then invalid_arg ("Exec: unbound var " ^ v);
      st.vars.(i) <- v;
      st.nvars <- i + 1;
      i
    end
    else if String.equal st.vars.(i) v then i
    else go (i + 1)
  in
  go 0

(* The attribute names a (key, payload) stream's payloads carry, in order. *)
let rec payload_attrs node =
  match node.Op.kind with
  | Op.Harvest { attrs; _ } -> attrs
  | Op.Hash_build { child }
  | Op.Spill_partition { child; _ }
  | Op.Sort { child }
  | Op.Exchange { child; _ } ->
      payload_attrs child
  | _ -> invalid_arg "Exec: operator does not produce payloads"

(* The row layout a binding stream emits: how each variable in scope is
   held.  Static per operator, so projections and probes resolve it once. *)
let rec sources node =
  match node.Op.kind with
  | Op.Fetch { var; cls; covering; _ } ->
      [ (var, if covering then Op.Ident else Op.Live cls) ]
  | Op.Nav_set { child; nav_var; nav_cls; _ }
  | Op.Nav_inverse { child; nav_var; nav_cls; _ } ->
      sources child @ [ (nav_var, Op.Live nav_cls) ]
  | Op.Hash_probe { build; probe; build_var; probe_var; _ } -> (
      let b = (build_var, Op.Stored (payload_attrs build)) in
      match probe.Op.kind with
      | Op.Spill_partition _ | Op.Exchange _ ->
          [ b; (probe_var, Op.Stored (payload_attrs probe)) ]
      | _ -> sources probe @ [ b ])
  | Op.Merge { left; right; left_var; right_var } ->
      [
        (left_var, Op.Stored (payload_attrs left));
        (right_var, Op.Stored (payload_attrs right));
      ]
  | _ -> invalid_arg "Exec: operator does not produce bindings"

(* The register of the single live Handle a binding stream puts in scope —
   what navigation, harvest and probe operators consume. *)
let live_reg st node =
  match node.Op.kind with
  | Op.Fetch { var; covering = false; _ } -> reg st var
  | _ -> invalid_arg "Exec: operator expects one Handle-backed variable"

(* Pin [rid] and, when [pass] accepts its Handle, write it to register
   [r] and emit the row.  The pin is released on both paths out of the
   row; a match with an exception case, not [Fun.protect], so the per-row
   work builds no closure. *)
let pin_row st fr ~pass ~r rid emit =
  let h = Database.acquire st.db rid in
  match
    if pass h then begin
      fr.Op.rows_out <- fr.Op.rows_out + 1;
      st.regs.Op.live.(r) <- h;
      emit ();
      Op.Acct.enter st.acct fr
    end
  with
  | () -> Database.unref st.db h
  | exception e ->
      Database.unref st.db h;
      raise e

(* --- Rid streams --- *)

let rec iter_rids st node emit =
  let fr = node.Op.frame in
  match node.Op.kind with
  | Op.Seq_scan { cls } ->
      Op.Acct.enter st.acct fr;
      let cur = Database.scan_cursor st.db ~cls in
      let rec go () =
        let n = Database.cursor_next_page cur in
        if n > 0 then begin
          let rids = Database.cursor_rids cur in
          for i = 0 to n - 1 do
            fr.Op.rows_out <- fr.Op.rows_out + 1;
            emit rids.(i);
            Op.Acct.enter st.acct fr
          done;
          go ()
        end
      in
      go ()
  | Op.Index_scan { index; lo; hi } ->
      Op.Acct.enter st.acct fr;
      Tb_store.Btree.range index.Tb_store.Index_def.tree ?lo ?hi (fun _ rid ->
          fr.Op.rows_out <- fr.Op.rows_out + 1;
          emit rid;
          Op.Acct.enter st.acct fr)
  | Op.Sort_rids { child } ->
      let rids = ref [] in
      let n = ref 0 in
      iter_rids st child (fun rid ->
          rids := rid :: !rids;
          incr n);
      Op.Acct.enter st.acct fr;
      fr.Op.rows_in <- !n;
      fr.Op.bytes <- !n * Rid.on_disk_bytes;
      Operators.sorted_rids (Database.sim st.db) ~rids:!rids ~count:!n
        (fun rid ->
          fr.Op.rows_out <- fr.Op.rows_out + 1;
          emit rid;
          Op.Acct.enter st.acct fr)
  | _ -> invalid_arg "Exec: operator does not produce Rids"

(* --- batched Rid streams ---

   The vector-at-a-time feed for Fetch: Rids arrive as slices
   [rids.(pos .. pos + len - 1)] of at most [batch] rows, and the
   producer's frame is re-entered once per slice instead of once per row.
   Slices never straddle a page boundary (Seq_scan feeds page by page via
   [Database.cursor_next_page]), so interleaving the consumer's per-row
   page accesses with the producer's page fetches keeps the exact charge
   order of the row-at-a-time stream — batching is charge-order-preserving
   by construction and needs no planner eligibility rules.  A slice
   borrows the producer's array: the consumer must not keep it. *)

(* Emit [rids.(0 .. n - 1)] in [batch]-sized slices, bumping rows_out per
   slice. *)
and emit_rid_chunks st fr ~batch rids n emit =
  let pos = ref 0 in
  while !pos < n do
    let len = Int.min batch (n - !pos) in
    fr.Op.rows_out <- fr.Op.rows_out + len;
    emit rids ~pos:!pos ~len;
    Op.Acct.enter st.acct fr;
    pos := !pos + len
  done

and iter_rid_batches st ~batch node emit =
  let fr = node.Op.frame in
  match node.Op.kind with
  | Op.Seq_scan { cls } ->
      Op.Acct.enter st.acct fr;
      let cur = Database.scan_cursor st.db ~cls in
      let rec go () =
        let n = Database.cursor_next_page cur in
        if n > 0 then begin
          emit_rid_chunks st fr ~batch (Database.cursor_rids cur) n emit;
          go ()
        end
      in
      go ()
  | Op.Index_scan { index; lo; hi } ->
      (* Index entries surface one at a time; singleton slices keep the
         per-row tree-page fetches interleaved exactly as before. *)
      Op.Acct.enter st.acct fr;
      let one = [| Rid.nil |] in
      Tb_store.Btree.range index.Tb_store.Index_def.tree ?lo ?hi (fun _ rid ->
          fr.Op.rows_out <- fr.Op.rows_out + 1;
          one.(0) <- rid;
          emit one ~pos:0 ~len:1;
          Op.Acct.enter st.acct fr)
  | Op.Sort_rids { child } ->
      let rids = ref [] in
      let n = ref 0 in
      iter_rids st child (fun rid ->
          rids := rid :: !rids;
          incr n);
      Op.Acct.enter st.acct fr;
      fr.Op.rows_in <- !n;
      fr.Op.bytes <- !n * Rid.on_disk_bytes;
      (* Slice emission happens inside the claim window, so the buffer
         release still follows the last emitted row as it always did. *)
      Operators.with_sorted_rids (Database.sim st.db) ~rids:!rids ~count:!n
        (fun arr -> emit_rid_chunks st fr ~batch arr (Array.length arr) emit)
  | _ -> invalid_arg "Exec: operator does not produce Rids"

(* --- binding streams: rows in the register file --- *)

and iter_rows st node emit =
  let db = st.db and regs = st.regs in
  let fr = node.Op.frame in
  match node.Op.kind with
  | Op.Fetch { child; cls; var; preds; covering; mode; batch } ->
      let r = reg st var in
      if covering then
        (* Identity-only projection with no residual predicates: no
           Handle traffic at all (Section 5's remark that navigation need
           not read patients when returning objects). *)
        iter_rid_batches st ~batch child (fun rids ~pos ~len ->
            for i = pos to pos + len - 1 do
              Op.Acct.enter st.acct fr;
              fr.Op.rows_in <- fr.Op.rows_in + 1;
              fr.Op.rows_out <- fr.Op.rows_out + 1;
              regs.Op.ident.(r) <- rids.(i);
              emit ();
              Op.Acct.enter st.acct fr
            done)
      else begin
        (* Emission stays inline per row in both modes: deferring it past
           the batch would reorder Handle releases against downstream
           claims and move the simulated memory peak. *)
        let pass =
          match mode with
          | Op.Handle ->
              let cpreds = Operators.compile_preds db ~cls preds in
              fun h -> Operators.eval_preds db h cpreds
          | Op.Packed ->
              let prog = Packed.compile db ~cls ~preds () in
              fun h -> Packed.eval_preds db prog (Packed.seek db prog h)
        in
        iter_rid_batches st ~batch child (fun rids ~pos ~len ->
            for i = pos to pos + len - 1 do
              Op.Acct.enter st.acct fr;
              fr.Op.rows_in <- fr.Op.rows_in + 1;
              pin_row st fr ~pass ~r rids.(i) emit
            done)
      end
  | Op.Nav_set { child; set_attr; owner_cls; nav_var; nav_cls; preds } ->
      let owner = live_reg st child and r = reg st nav_var in
      let set_slot = Database.attr_slot db ~cls:owner_cls set_attr in
      let cpreds = Operators.compile_preds db ~cls:nav_cls preds in
      let pass h = Operators.eval_preds db h cpreds in
      let visit = function
        | Value.Ref crid -> pin_row st fr ~pass ~r crid emit
        | Value.Nil -> ()
        | _ -> invalid_arg "Exec: collection element is not a reference"
      in
      iter_rows st child (fun () ->
          Op.Acct.enter st.acct fr;
          fr.Op.rows_in <- fr.Op.rows_in + 1;
          Database.iter_set db
            (Database.get_att_slot db regs.Op.live.(owner) set_slot)
            visit)
  | Op.Nav_inverse { child; inv_attr; owner_cls; nav_var; nav_cls; preds } ->
      let owner = live_reg st child and r = reg st nav_var in
      let inv_slot = Database.attr_slot db ~cls:owner_cls inv_attr in
      let cpreds = Operators.compile_preds db ~cls:nav_cls preds in
      let pass h = Operators.eval_preds db h cpreds in
      iter_rows st child (fun () ->
          Op.Acct.enter st.acct fr;
          fr.Op.rows_in <- fr.Op.rows_in + 1;
          match Database.get_att_slot db regs.Op.live.(owner) inv_slot with
          | Value.Ref prid -> pin_row st fr ~pass ~r prid emit
          | Value.Nil -> ()
          | _ -> invalid_arg "Exec: inverse attribute is not a reference")
  | Op.Hash_probe { build; probe; probe_key; probe_cls; build_var; probe_var }
    ->
      run_hash_probe st node.Op.frame ~build ~probe ~probe_key ~probe_cls
        ~build_var ~probe_var emit
  | Op.Merge { left; right; left_var; right_var } ->
      run_merge st node.Op.frame ~left ~right ~left_var ~right_var emit
  | _ -> invalid_arg "Exec: operator does not produce bindings"

(* --- (key, payload) streams --- *)

and iter_kvs st node emit =
  let db = st.db in
  let fr = node.Op.frame in
  match node.Op.kind with
  | Op.Harvest { child; key; cls; attrs; mode = Op.Handle } ->
      let h_reg = live_reg st child in
      let slots = Operators.compile_attrs db ~cls attrs in
      let keyf = Operators.compile_key db ~cls key in
      iter_rows st child (fun () ->
          Op.Acct.enter st.acct fr;
          fr.Op.rows_in <- fr.Op.rows_in + 1;
          let h = st.regs.Op.live.(h_reg) in
          let k = keyf h in
          if not (Rid.is_nil k) then begin
            let payload = Operators.make_payload db h ~slots in
            fr.Op.rows_out <- fr.Op.rows_out + 1;
            emit k payload;
            Op.Acct.enter st.acct fr
          end)
  | Op.Harvest { child; key; cls; attrs; mode = Op.Packed } ->
      let h_reg = live_reg st child in
      let prog = Packed.compile db ~cls ~key ~attrs () in
      iter_rows st child (fun () ->
          Op.Acct.enter st.acct fr;
          fr.Op.rows_in <- fr.Op.rows_in + 1;
          let h = st.regs.Op.live.(h_reg) in
          let self = Database.handle_rid db h in
          let buf = Packed.seek db prog h in
          let k = Packed.eval_key db prog buf ~self in
          if not (Rid.is_nil k) then begin
            let payload = Packed.make_payload db prog buf ~self in
            fr.Op.rows_out <- fr.Op.rows_out + 1;
            emit k payload;
            Op.Acct.enter st.acct fr
          end)
  | _ -> invalid_arg "Exec: operator does not produce key/value pairs"

(* --- hash joins --- *)

(* In-memory build: PHJ hashes the parents, CHJ the children (keyed by the
   parent reference).  The probe side stays live in its register; each
   match writes the stowed build payload to the build variable's. *)
and run_hash_probe st fr ~build ~probe ~probe_key ~probe_cls ~build_var
    ~probe_var emit =
  let db = st.db and regs = st.regs in
  let sim = Database.sim db in
  match (probe.Op.kind, build.Op.kind) with
  | Op.Spill_partition _, _ ->
      run_hybrid st fr ~build ~probe ~build_var ~probe_var emit
  | _, Op.Hash_build { child = bharv } ->
      let bfr = build.Op.frame in
      let p_reg = live_reg st probe and b_reg = reg st build_var in
      let table : Op.payload Mem_hash.t = Mem_hash.create sim in
      Fun.protect
        ~finally:(fun () ->
          bfr.Op.bytes <- max bfr.Op.bytes (Mem_hash.size_bytes table);
          Mem_hash.dispose table)
        (fun () ->
          iter_kvs st bharv (fun key payload ->
              Op.Acct.enter st.acct bfr;
              bfr.Op.rows_in <- bfr.Op.rows_in + 1;
              Mem_hash.add table ~key
                ~payload_bytes:(Operators.payload_bytes payload)
                payload);
          let keyf = Operators.compile_key db ~cls:probe_cls probe_key in
          let matched bp =
            regs.Op.stored.(b_reg) <- bp;
            fr.Op.rows_out <- fr.Op.rows_out + 1;
            emit ();
            Op.Acct.enter st.acct fr
          in
          iter_rows st probe (fun () ->
              Op.Acct.enter st.acct fr;
              fr.Op.rows_in <- fr.Op.rows_in + 1;
              let key = keyf regs.Op.live.(p_reg) in
              if not (Rid.is_nil key) then
                List.iter matched (Mem_hash.find table ~key)))
  | _ -> invalid_arg "Exec: Hash_probe expects a Hash_build build side"

(* Hybrid hash join.  The build side is split into [partitions] buckets by
   key hash: bucket 0 is joined in memory on the fly, the others are
   written to temporary files on both sides and joined bucket by bucket.
   Disk traffic replaces the swap thrash of the in-memory algorithms: the
   fix the paper points at ("the need for hybrid hashing") but never
   measured.  Both sides reach the projection as payloads. *)
and run_hybrid st fr ~build ~probe ~build_var ~probe_var emit =
  let db = st.db and regs = st.regs in
  let sim = Database.sim db in
  let hb_fr, bspill_node, bharv =
    match build.Op.kind with
    | Op.Hash_build { child = ({ Op.kind = Op.Spill_partition { child; _ }; _ } as sp) }
      ->
        (build.Op.frame, sp, child)
    | _ -> invalid_arg "Exec: hybrid build side must spill-partition"
  in
  let psp_fr, pharv_node, partitions =
    match probe.Op.kind with
    | Op.Spill_partition { child; partitions } ->
        (probe.Op.frame, child, partitions)
    | _ -> invalid_arg "Exec: hybrid probe side must spill-partition"
  in
  let bsp_fr = bspill_node.Op.frame in
  let ph_fr = pharv_node.Op.frame in
  let probe_fetch, pkey, pcls, pattrs =
    match pharv_node.Op.kind with
    | Op.Harvest { child; key; cls; attrs; _ } -> (child, key, cls, attrs)
    | _ -> invalid_arg "Exec: hybrid probe side must harvest"
  in
  let battrs = payload_attrs bharv in
  let b_reg = reg st build_var and p_reg = reg st probe_var in
  let h_reg = live_reg st probe_fetch in
  let bucket key = Rid.hash key mod partitions in
  let emit_pair bp pl =
    regs.Op.stored.(b_reg) <- bp;
    regs.Op.stored.(p_reg) <- pl;
    fr.Op.rows_out <- fr.Op.rows_out + 1;
    emit ();
    Op.Acct.enter st.acct fr
  in
  let live = ref None in
  let dispose_live () =
    match !live with
    | Some t ->
        hb_fr.Op.bytes <- max hb_fr.Op.bytes (Mem_hash.size_bytes t);
        Mem_hash.dispose t;
        live := None
    | None -> ()
  in
  Fun.protect ~finally:dispose_live @@ fun () ->
  let table : Op.payload Mem_hash.t = Mem_hash.create sim in
  live := Some table;
  let build_spill = Operators.new_spill_files db (max 0 (partitions - 1)) in
  let probe_spill = Operators.new_spill_files db (max 0 (partitions - 1)) in
  (* Build pass. *)
  iter_kvs st bharv (fun key payload ->
      Op.Acct.enter st.acct bsp_fr;
      bsp_fr.Op.rows_in <- bsp_fr.Op.rows_in + 1;
      if bucket key = 0 then begin
        bsp_fr.Op.rows_out <- bsp_fr.Op.rows_out + 1;
        Op.Acct.enter st.acct hb_fr;
        hb_fr.Op.rows_in <- hb_fr.Op.rows_in + 1;
        Mem_hash.add table ~key
          ~payload_bytes:(Operators.payload_bytes payload)
          payload
      end
      else Operators.spill build_spill.(bucket key - 1) ~names:battrs ~key payload);
  (* Probe pass: bucket 0 joins immediately, the rest spill.  Bucket-0
     probe payloads are harvested lazily, once per match. *)
  let pslots = Operators.compile_attrs db ~cls:pcls pattrs in
  let pkeyf = Operators.compile_key db ~cls:pcls pkey in
  let harvest h =
    Op.Acct.enter st.acct ph_fr;
    ph_fr.Op.rows_in <- ph_fr.Op.rows_in + 1;
    let pl = Operators.make_payload db h ~slots:pslots in
    ph_fr.Op.rows_out <- ph_fr.Op.rows_out + 1;
    pl
  in
  let rec matches h = function
    | [] -> ()
    | bp :: rest ->
        let pl = harvest h in
        Op.Acct.enter st.acct fr;
        emit_pair bp pl;
        matches h rest
  in
  let rec pairs pl = function
    | [] -> ()
    | bp :: rest ->
        emit_pair bp pl;
        pairs pl rest
  in
  iter_rows st probe_fetch (fun () ->
      Op.Acct.enter st.acct fr;
      fr.Op.rows_in <- fr.Op.rows_in + 1;
      let h = regs.Op.live.(h_reg) in
      let key = pkeyf h in
      if not (Rid.is_nil key) then
        if bucket key = 0 then matches h (Mem_hash.find table ~key)
        else begin
          let pl = harvest h in
          Op.Acct.enter st.acct psp_fr;
          psp_fr.Op.rows_in <- psp_fr.Op.rows_in + 1;
          Operators.spill probe_spill.(bucket key - 1) ~names:pattrs ~key pl
        end);
  dispose_live ();
  (* Spilled buckets, one at a time: each fits memory by construction. *)
  for b = 0 to partitions - 2 do
    let tb : Op.payload Mem_hash.t = Mem_hash.create sim in
    live := Some tb;
    Op.Acct.enter st.acct bsp_fr;
    Heap_file.scan build_spill.(b) (fun _ body ->
        Op.Acct.enter st.acct hb_fr;
        let key, payload = Operators.unspill_record body in
        hb_fr.Op.rows_in <- hb_fr.Op.rows_in + 1;
        Mem_hash.add tb ~key
          ~payload_bytes:(Operators.payload_bytes payload)
          payload;
        Op.Acct.enter st.acct bsp_fr);
    Op.Acct.enter st.acct psp_fr;
    Heap_file.scan probe_spill.(b) (fun _ body ->
        Op.Acct.enter st.acct fr;
        let key, pl = Operators.unspill_record body in
        pairs pl (Mem_hash.find tb ~key);
        Op.Acct.enter st.acct psp_fr);
    dispose_live ()
  done

(* --- pointer-based sort-merge join --- *)

and run_merge st fr ~left ~right ~left_var ~right_var emit =
  let sim = Database.sim st.db and regs = st.regs in
  let l_reg = reg st left_var and r_reg = reg st right_var in
  let run_sort node =
    match node.Op.kind with
    | Op.Sort { child } ->
        let sfr = node.Op.frame in
        let acc = ref [] in
        let bytes = ref 0 in
        iter_kvs st child (fun k p ->
            Op.Acct.enter st.acct sfr;
            sfr.Op.rows_in <- sfr.Op.rows_in + 1;
            acc := (k, p) :: !acc;
            bytes := !bytes + Operators.payload_bytes p);
        Op.Acct.enter st.acct sfr;
        let arr = Operators.claim_and_sort sim !acc ~bytes:!bytes in
        sfr.Op.bytes <- !bytes;
        sfr.Op.rows_out <- Array.length arr;
        (arr, !bytes)
    | _ -> invalid_arg "Exec: Merge expects Sort children"
  in
  (* Both runs stay claimed until the merge is done; release also on
     exception so a failed query cannot leak simulated RAM. *)
  let claimed = ref 0 in
  Fun.protect ~finally:(fun () -> Operators.release_bytes sim !claimed)
  @@ fun () ->
  let parents, p_bytes = run_sort left in
  claimed := !claimed + p_bytes;
  let children, c_bytes = run_sort right in
  claimed := !claimed + c_bytes;
  Op.Acct.enter st.acct fr;
  fr.Op.rows_in <- Array.length parents + Array.length children;
  Operators.merge_join sim ~bytes:(p_bytes + c_bytes) ~parents ~children
    (fun pp cp ->
      regs.Op.stored.(l_reg) <- pp;
      regs.Op.stored.(r_reg) <- cp;
      fr.Op.rows_out <- fr.Op.rows_out + 1;
      emit ();
      Op.Acct.enter st.acct fr)

(* --- value streams and the sink --- *)

let iter_values st node emit =
  match node.Op.kind with
  | Op.Project { child; select } ->
      let fr = node.Op.frame in
      let project =
        Operators.compile_select st.db ~reg:(reg st) ~sources:(sources child)
          select
      in
      iter_rows st child (fun () ->
          Op.Acct.enter st.acct fr;
          fr.Op.rows_in <- fr.Op.rows_in + 1;
          let v = Operators.eval_select st.db st.regs project in
          fr.Op.rows_out <- fr.Op.rows_out + 1;
          emit v;
          Op.Acct.enter st.acct fr)
  | _ -> invalid_arg "Exec: operator does not produce values"

(* Drive a Materialize subtree to completion and return its result. *)
let drive_materialize st node ~keep =
  match node.Op.kind with
  | Op.Materialize { child; aggregate } ->
      let fr = node.Op.frame in
      let result = Query_result.create ?aggregate (Database.sim st.db) ~keep in
      iter_values st child (fun v ->
          Op.Acct.enter st.acct fr;
          fr.Op.rows_in <- fr.Op.rows_in + 1;
          Query_result.append result v;
          fr.Op.rows_out <- fr.Op.rows_out + 1);
      Op.Acct.enter st.acct fr;
      fr.Op.bytes <- Query_result.size_bytes result;
      result
  | _ -> invalid_arg "Exec: operator tree root must be Materialize"

(* Global counter deltas between two snapshots, in explain-report fields.
   [t_ms] reads [work_ms], the monotone sum of every advance: inside a
   fork/join scope elapsed time takes the max over lanes while the per-
   operator frames (also fed from [work_ms]) stay additive — and outside a
   scope the two clocks are bit-identical. *)
type snapshot = {
  p_ms : float;
  p_dr : int;
  p_dw : int;
  p_ha : int;
  p_ga : int;
  p_cmp : int;
  p_hi : int;
  p_hp : int;
  p_sc : int;
}

let snapshot sim =
  let c = sim.Tb_sim.Sim.counters in
  {
    p_ms = Tb_sim.Clock.work_ms sim.Tb_sim.Sim.clock;
    p_dr = c.Counters.disk_reads;
    p_dw = c.Counters.disk_writes;
    p_ha = c.Counters.handle_allocs;
    p_ga = c.Counters.get_atts;
    p_cmp = c.Counters.comparisons;
    p_hi = c.Counters.hash_inserts;
    p_hp = c.Counters.hash_probes;
    p_sc = c.Counters.sort_comparisons;
  }

let deltas sim s0 =
  let c = sim.Tb_sim.Sim.counters in
  {
    Op.t_handles = c.Counters.handle_allocs - s0.p_ha;
    t_pages_read = c.Counters.disk_reads - s0.p_dr;
    t_pages_written = c.Counters.disk_writes - s0.p_dw;
    t_get_atts = c.Counters.get_atts - s0.p_ga;
    t_cmps = c.Counters.comparisons - s0.p_cmp;
    t_hash_ops =
      c.Counters.hash_inserts - s0.p_hi + c.Counters.hash_probes - s0.p_hp;
    t_sort_cmps = c.Counters.sort_comparisons - s0.p_sc;
    t_ms = Tb_sim.Clock.work_ms sim.Tb_sim.Sim.clock -. s0.p_ms;
  }

let run_explained db root ~keep =
  let sim = Database.sim db in
  Op.reset_frames root;
  let acct = Op.Acct.create sim root.Op.frame in
  let st = state db acct root in
  let s0 = snapshot sim in
  let result = drive_materialize st root ~keep in
  Op.Acct.flush acct;
  (result, deltas sim s0)

let run db root ~keep = fst (run_explained db root ~keep)

(* --- sharded execution ---

   The root is a Gather over S Shard_lane subtrees.  Shard-local plans
   (selections, navigation joins, sort-merge — sound because placement
   colocates each provider with its patients) run one fork/join scope:
   lane s drives shard s's Materialize subtree on shard s's clock lane,
   then the join takes the max.  Exchange plans (the hash joins) run two
   scopes with a barrier between them: phase A harvests both sides on
   every source lane and routes rows by key hash through {!Exchange}
   (shipping charged on the source's lane), the join is the all-to-all
   barrier, then phase B builds and probes each destination's hash table
   on the destination's lane.  The Gather runs after the final join on
   the joined timeline: shipping each shard's partial result and the
   ordered-merge comparisons are the modeled merge cost that bends the
   speedup curve. *)

type failover = {
  fo_shard : int;  (** the shard that died *)
  fo_boundary : int;  (** 1-based exchange-boundary ordinal of the death *)
  fo_phase : string;  (** "local" | "route" | "dest" *)
  fo_ms : float;  (** detection + promotion + re-execution, lane time *)
}

type lane_report = {
  lane_ms : float array;  (** per-shard busy time inside the fork scopes *)
  merge_ms : float;  (** the Gather's own elapsed after the last join *)
  elapsed_ms : float;  (** simulated elapsed of the whole run (max + merge) *)
  critical : int;  (** the critical-path shard: argmax of [lane_ms] *)
  failovers : failover list;  (** replica promotions, in occurrence order *)
  degraded : bool;  (** completed with reduced replicas *)
}

(* Rebuild a shard-local subtree against a promoted replica: the only
   db-bound state an operator node carries is its Index_scan catalog
   entry, swapped for the replica's index over the same (cls, attr).
   Frames are SHARED with the original nodes, so the wasted first attempt
   and the re-execution accumulate into the same per-operator report and
   [Op.reconciles] stays exact. *)
let rec retarget db node =
  let re = retarget db in
  let kind =
    match node.Op.kind with
    | Op.Seq_scan _ as k -> k
    | Op.Index_scan { index; lo; hi } -> (
        let cls = index.Tb_store.Index_def.cls in
        let attr = index.Tb_store.Index_def.attr in
        match Database.find_index db ~cls ~attr with
        | Some index -> Op.Index_scan { index; lo; hi }
        | None ->
            invalid_arg
              (Printf.sprintf "Exec: replica lacks index %s.%s" cls attr))
    | Op.Sort_rids { child } -> Op.Sort_rids { child = re child }
    | Op.Fetch { child; cls; var; preds; covering; mode; batch } ->
        Op.Fetch { child = re child; cls; var; preds; covering; mode; batch }
    | Op.Nav_set { child; set_attr; owner_cls; nav_var; nav_cls; preds } ->
        Op.Nav_set
          { child = re child; set_attr; owner_cls; nav_var; nav_cls; preds }
    | Op.Nav_inverse { child; inv_attr; owner_cls; nav_var; nav_cls; preds } ->
        Op.Nav_inverse
          { child = re child; inv_attr; owner_cls; nav_var; nav_cls; preds }
    | Op.Harvest { child; key; cls; attrs; mode } ->
        Op.Harvest { child = re child; key; cls; attrs; mode }
    | Op.Hash_build { child } -> Op.Hash_build { child = re child }
    | Op.Spill_partition { child; partitions } ->
        Op.Spill_partition { child = re child; partitions }
    | Op.Hash_probe { build; probe; probe_key; probe_cls; build_var; probe_var }
      ->
        Op.Hash_probe
          {
            build = re build;
            probe = re probe;
            probe_key;
            probe_cls;
            build_var;
            probe_var;
          }
    | Op.Sort { child } -> Op.Sort { child = re child }
    | Op.Merge { left; right; left_var; right_var } ->
        Op.Merge { left = re left; right = re right; left_var; right_var }
    | Op.Project { child; select } -> Op.Project { child = re child; select }
    | Op.Materialize { child; aggregate } ->
        Op.Materialize { child = re child; aggregate }
    | Op.Shard_lane _ | Op.Exchange _ | Op.Gather _ ->
        invalid_arg "Exec: cannot retarget a sharding operator"
  in
  { Op.kind; frame = node.Op.frame; est = node.Op.est }

(* Promote until a replica passes its checksum walk (a refusing replica is
   consumed, so the loop advances); fail the query only when the shard has
   nothing left to promote. *)
let rec promote_replica smap ~shard =
  match Tb_store.Shard_map.promote smap ~shard with
  | Ok db -> db
  | Error msg ->
      if Tb_store.Shard_map.live_replicas smap shard <= 1 then
        failwith
          (Printf.sprintf "Exec: shard %d unrecoverable: %s" shard msg)
      else promote_replica smap ~shard

(* The per-lane pieces of an exchange (hash-join) plan. *)
type xlane = {
  xl_shard : int;
  xl_mat : Op.t;
  xl_proj : Op.t;
  xl_hp : Op.t;
  xl_hb : Op.t;
  xl_bex : Op.t;
  xl_bharv : Op.t;
  xl_pex : Op.t;
  xl_pharv : Op.t;
  xl_build_var : string;
  xl_probe_var : string;
}

let exchange_parts lane =
  match lane.Op.kind with
  | Op.Shard_lane { child = mat; shard; _ } -> (
      match mat.Op.kind with
      | Op.Materialize { child = proj; _ } -> (
          match proj.Op.kind with
          | Op.Project { child = hp; _ } -> (
              match hp.Op.kind with
              | Op.Hash_probe { build = hb; probe = pex; build_var; probe_var; _ }
                -> (
                  match (hb.Op.kind, pex.Op.kind) with
                  | ( Op.Hash_build { child = bex },
                      Op.Exchange { child = pharv; _ } ) -> (
                      match bex.Op.kind with
                      | Op.Exchange { child = bharv; _ } ->
                          Some
                            {
                              xl_shard = shard;
                              xl_mat = mat;
                              xl_proj = proj;
                              xl_hp = hp;
                              xl_hb = hb;
                              xl_bex = bex;
                              xl_bharv = bharv;
                              xl_pex = pex;
                              xl_pharv = pharv;
                              xl_build_var = build_var;
                              xl_probe_var = probe_var;
                            }
                      | _ -> None)
                  | _ -> None)
              | _ -> None)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* Phase B of an exchange plan: build the destination's table from the
   routed build rows, probe with the routed probe rows, project and
   materialize on this lane. *)
let run_exchange_dest acct db xl ~keep ~(bx : (Rid.t * Op.payload) Exchange.t)
    ~(px : (Rid.t * Op.payload) Exchange.t) =
  let sim = Database.sim db in
  let hb_fr = xl.xl_hb.Op.frame in
  let hp_fr = xl.xl_hp.Op.frame in
  let proj_fr = xl.xl_proj.Op.frame in
  let mat_fr = xl.xl_mat.Op.frame in
  let select, aggregate =
    match (xl.xl_proj.Op.kind, xl.xl_mat.Op.kind) with
    | Op.Project { select; _ }, Op.Materialize { aggregate; _ } ->
        (select, aggregate)
    | _ -> assert false
  in
  let st = state db acct xl.xl_hp in
  let regs = st.regs in
  let b_reg = reg st xl.xl_build_var and p_reg = reg st xl.xl_probe_var in
  let project =
    Operators.compile_select db ~reg:(reg st) ~sources:(sources xl.xl_hp) select
  in
  let table : Op.payload Mem_hash.t = Mem_hash.create sim in
  Fun.protect
    ~finally:(fun () ->
      hb_fr.Op.bytes <- max hb_fr.Op.bytes (Mem_hash.size_bytes table);
      Mem_hash.dispose table)
    (fun () ->
      Op.Acct.enter acct hb_fr;
      List.iter
        (fun (key, payload) ->
          hb_fr.Op.rows_in <- hb_fr.Op.rows_in + 1;
          Mem_hash.add table ~key
            ~payload_bytes:(Operators.payload_bytes payload)
            payload)
        (Exchange.take bx ~dest:xl.xl_shard);
      Exchange.release_dest bx ~dest:xl.xl_shard;
      let result = Query_result.create ?aggregate sim ~keep in
      let matched bp =
        regs.Op.stored.(b_reg) <- bp;
        hp_fr.Op.rows_out <- hp_fr.Op.rows_out + 1;
        Op.Acct.enter acct proj_fr;
        proj_fr.Op.rows_in <- proj_fr.Op.rows_in + 1;
        let v = Operators.eval_select db regs project in
        proj_fr.Op.rows_out <- proj_fr.Op.rows_out + 1;
        Op.Acct.enter acct mat_fr;
        mat_fr.Op.rows_in <- mat_fr.Op.rows_in + 1;
        Query_result.append result v;
        mat_fr.Op.rows_out <- mat_fr.Op.rows_out + 1;
        Op.Acct.enter acct hp_fr
      in
      (* The result survives the return — the gather owns it — but a raise
         while probing must not leak its claimed bytes: dispose on the
         unwind (the failover path then rebuilds on the replica). *)
      (match
         Op.Acct.enter acct hp_fr;
         List.iter
           (fun (key, pl) ->
             hp_fr.Op.rows_in <- hp_fr.Op.rows_in + 1;
             regs.Op.stored.(p_reg) <- pl;
             List.iter matched (Mem_hash.find table ~key))
           (Exchange.take px ~dest:xl.xl_shard);
         Exchange.release_dest px ~dest:xl.xl_shard;
         Op.Acct.enter acct mat_fr;
         mat_fr.Op.bytes <- Query_result.size_bytes result
       with
      | () -> ()
      | exception e ->
          Query_result.dispose result;
          raise e);
      result)

let run_sharded_explained smap root ~keep =
  let sim = Tb_store.Shard_map.sim smap in
  let clock = sim.Tb_sim.Sim.clock in
  Op.reset_frames root;
  let lanes, shards, ordered, gfr =
    match root.Op.kind with
    | Op.Gather { lanes; shards; ordered; _ } ->
        (lanes, shards, ordered, root.Op.frame)
    | _ -> invalid_arg "Exec: sharded operator tree root must be Gather"
  in
  if Array.length lanes <> shards then
    invalid_arg "Exec: Gather lane count does not match shard count";
  let acct = Op.Acct.create sim gfr in
  let s0 = snapshot sim in
  let now0 = Tb_sim.Clock.now_ms clock in
  let lane_ms = Array.make shards 0.0 in
  let failovers = ref [] in
  let fault_of s = Tb_store.Shard_map.fault smap s in
  (* A shard died at an exchange boundary on the current lane: charge the
     detection timeout, promote its next replica (WAL catch-up + checksum
     walk, charged by Shard_map), then [resume] against it.  Everything
     lands on the lane's clock lane attributed to the Shard_lane frame, so
     a failover stretches the critical path exactly when its shard sits on
     it.  The dying fault layer is read *before* promotion clears it — the
     boundary ordinal is the chaos sweep's kill-point coordinate. *)
  let failover ~shard ~phase ~lane_fr resume =
    let t0 = Tb_sim.Clock.work_ms clock in
    let boundary =
      match fault_of shard with
      | Some f -> Tb_storage.Fault.boundaries_seen f
      | None -> 0
    in
    Op.Acct.enter acct lane_fr;
    Exchange.detect_failure sim;
    let db = promote_replica smap ~shard in
    let r = resume db in
    let fo_ms = Tb_sim.Clock.work_ms clock -. t0 in
    failovers :=
      { fo_shard = shard; fo_boundary = boundary; fo_phase = phase; fo_ms }
      :: !failovers;
    r
  in
  let xls = Array.map exchange_parts lanes in
  let partials =
    if Array.for_all Option.is_some xls then begin
      (* Exchange plan: phase A routes both sides source-by-source, the
         join is the all-to-all barrier, phase B joins per destination.
         Boundaries: one before a source routes, one after both its sides
         flushed (phase A), one before a destination builds (phase B) —
         in phase A a failover drops the dead source's partial traffic
         from both buffers and re-routes from the replica; in phase B the
         routed rows are all still intact, so the replica only re-runs
         the destination's build/probe. *)
      let xls = Array.map Option.get xls in
      let bx : (Rid.t * Op.payload) Exchange.t =
        Exchange.create ~fault_of sim ~shards
      in
      (* Nested protects, one per exchange: with a single shared finally,
         the second [create] raising — or the first dispose unwinding past
         the second — would leak the survivor's claimed buffers. *)
      Fun.protect ~finally:(fun () -> Exchange.dispose bx) @@ fun () ->
      let px : (Rid.t * Op.payload) Exchange.t =
        Exchange.create ~fault_of sim ~shards
      in
      Fun.protect ~finally:(fun () -> Exchange.dispose px) @@ fun () ->
      let scope_a = Tb_sim.Clock.fork clock ~lanes:shards in
          Array.iteri
            (fun i xl ->
              Tb_sim.Clock.enter_lane scope_a i;
              let shard = xl.xl_shard in
              let route db (ex_fr : Op.frame) buf harv =
                let st = state db acct harv in
                iter_kvs st harv (fun key payload ->
                    Op.Acct.enter acct ex_fr;
                    ex_fr.Op.rows_in <- ex_fr.Op.rows_in + 1;
                    let key = Exchange.retag ~shard key in
                    ex_fr.Op.rows_out <- ex_fr.Op.rows_out + 1;
                    Exchange.send buf ~src:shard
                      ~dest:(Exchange.dest_of buf key)
                      ~bytes:(Operators.payload_bytes payload + Rid.on_disk_bytes)
                      (key, payload));
                Op.Acct.enter acct ex_fr;
                Exchange.flush_source buf ~src:shard
              in
              let route_both db bharv pharv =
                route db xl.xl_bex.Op.frame bx bharv;
                route db xl.xl_pex.Op.frame px pharv
              in
              try
                Exchange.boundary sim (fault_of shard);
                route_both
                  (Tb_store.Shard_map.shard smap shard)
                  xl.xl_bharv xl.xl_pharv;
                Exchange.boundary sim (fault_of shard)
              with Tb_storage.Fault.Shard_down s when s = shard ->
                failover ~shard ~phase:"route" ~lane_fr:lanes.(i).Op.frame
                  (fun db ->
                    Exchange.drop_source bx ~src:shard;
                    Exchange.drop_source px ~src:shard;
                    route_both db
                      (retarget db xl.xl_bharv)
                      (retarget db xl.xl_pharv)))
            xls;
          Tb_sim.Clock.join scope_a;
          let scope_b = Tb_sim.Clock.fork clock ~lanes:shards in
          let partials =
            Array.mapi
              (fun i xl ->
                Tb_sim.Clock.enter_lane scope_b i;
                let shard = xl.xl_shard in
                try
                  Exchange.boundary sim (fault_of shard);
                  let db = Tb_store.Shard_map.shard smap shard in
                  run_exchange_dest acct db xl ~keep ~bx ~px
                with Tb_storage.Fault.Shard_down s when s = shard ->
                  failover ~shard ~phase:"dest" ~lane_fr:lanes.(i).Op.frame
                    (fun db -> run_exchange_dest acct db xl ~keep ~bx ~px))
              xls
          in
          Array.iteri
            (fun i _ ->
              lane_ms.(i) <-
                Tb_sim.Clock.lane_ms scope_a i +. Tb_sim.Clock.lane_ms scope_b i)
            lane_ms;
          Tb_sim.Clock.join scope_b;
          partials
    end
    else begin
      (* Shard-local plan: one scope, each lane drives its own subtree.
         Boundaries: dispatch (before the drive) and pre-ship (after it,
         still inside the lane).  A pre-ship death abandons the finished
         partial — its rows die with the shard — and the replica redoes
         the whole subtree, which is exactly the re-execution the elapsed
         model should see. *)
      let scope = Tb_sim.Clock.fork clock ~lanes:shards in
      let partials =
        Array.mapi
          (fun i lane ->
            match lane.Op.kind with
            | Op.Shard_lane { child; shard; _ } ->
                Tb_sim.Clock.enter_lane scope i;
                let lfr = lane.Op.frame in
                let finish r =
                  lfr.Op.rows_out <- Query_result.count r;
                  r
                in
                let drive db node =
                  drive_materialize (state db acct node) node ~keep
                in
                (try
                   Exchange.boundary sim (fault_of shard);
                   let r = drive (Tb_store.Shard_map.shard smap shard) child in
                   (try Exchange.boundary sim (fault_of shard)
                    with e ->
                      Query_result.dispose r;
                      raise e);
                   finish r
                 with Tb_storage.Fault.Shard_down s when s = shard ->
                   failover ~shard ~phase:"local" ~lane_fr:lfr (fun db ->
                       finish (drive db (retarget db child))))
            | _ -> invalid_arg "Exec: Gather lanes must be Shard_lane")
          lanes
      in
      Array.iteri
        (fun i _ -> lane_ms.(i) <- Tb_sim.Clock.lane_ms scope i)
        lane_ms;
      Tb_sim.Clock.join scope;
      partials
    end
  in
  (* The gather itself, on the joined timeline: ship every shard's partial
     to the coordinator, merge charge-free ([Query_result.absorb]), and
     pay the tournament comparisons when order must be preserved. *)
  Op.Acct.enter acct gfr;
  let merge0 = Tb_sim.Clock.now_ms clock in
  let total = partials.(0) in
  Array.iteri
    (fun i p ->
      gfr.Op.rows_in <- gfr.Op.rows_in + Query_result.rows_seen p;
      Exchange.ship_partial sim ~bytes:(Query_result.size_bytes p);
      if i > 0 then Query_result.absorb total p)
    partials;
  if ordered then
    Exchange.merge_ordered sim ~rows:(Query_result.rows_seen total)
      ~streams:shards;
  gfr.Op.rows_out <- Query_result.count total;
  gfr.Op.bytes <- Query_result.size_bytes total;
  Op.Acct.flush acct;
  let now1 = Tb_sim.Clock.now_ms clock in
  let critical = ref 0 in
  Array.iteri
    (fun i ms -> if ms > lane_ms.(!critical) then critical := i)
    lane_ms;
  let failovers = List.rev !failovers in
  ( total,
    deltas sim s0,
    {
      lane_ms;
      merge_ms = now1 -. merge0;
      elapsed_ms = now1 -. now0;
      critical = !critical;
      failovers;
      degraded = (match failovers with [] -> false | _ :: _ -> true);
    } )

(* --- validate: reconcile estimates against accounted frames --- *)

type est_check = {
  ec_key : string;
  ec_est_ms : float;
  ec_actual_ms : float;
  ec_q : float;
  ec_fed_back : bool;
}

(* The fourth optimizer stage: after a run, compare every operator's
   estimate against the ms its accounted frame actually accrued.  Operators
   whose q-error exceeds [threshold] feed a correction back into the stat
   catalog — [Stat_catalog.observe] rescales that operator's key so the
   next optimization of the same logical query estimates it exactly.  The
   walk only reads frames; it never charges. *)
let validate ?(threshold = 2.0) ~stats root =
  let checks = ref [] in
  Op.iter
    (fun n ->
      match Op.Est.get n with
      | None -> ()
      | Some e ->
          let actual = n.Op.frame.Op.clock.Op.ms in
          let q = Op.Est.q ~est:e.Op.est_ms ~actual in
          let fed = q > threshold in
          if fed then
            Tb_statcore.Stat_catalog.observe stats ~op:(Op.opcode n)
              ~cls:(Estimate.est_cls n) ~est_ms:e.Op.est_ms ~actual_ms:actual;
          checks :=
            {
              ec_key = Estimate.est_key n;
              ec_est_ms = e.Op.est_ms;
              ec_actual_ms = actual;
              ec_q = q;
              ec_fed_back = fed;
            }
            :: !checks)
    root;
  List.rev !checks

let worst_q checks =
  List.fold_left (fun acc c -> Float.max acc c.ec_q) 1.0 checks
