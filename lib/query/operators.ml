(* The charging kernels behind the physical operators.

   treelint's R1 discipline is split along this boundary: these functions
   are the modeled engine components and may call Sim.charge_* / claim
   simulated memory; the interpreter in Exec orchestrates them and may
   not charge anything itself.  Every kernel reproduces the charge order
   of the pre-operator monolithic drivers verbatim — the golden counter
   fingerprint depends on the sequence, not just the totals. *)

module Value = Tb_store.Value
module Database = Tb_store.Database
module Codec = Tb_store.Codec
module Heap_file = Tb_storage.Heap_file
module Rid = Tb_storage.Rid
module Sim = Tb_sim.Sim

let payload_bytes (p : Op.payload) =
  let vals = p.Op.vals in
  let acc = ref Rid.on_disk_bytes in
  for i = 0 to Array.length vals - 1 do
    acc := !acc + 4 + Tb_store.Codec.encoded_size vals.(i)
  done;
  !acc

(* Attribute names are resolved to schema slots once per operator; the
   per-row work below (predicate evaluation, payload harvest, inverse
   navigation) is then an integer-indexed load instead of a string
   lookup. *)
type compiled_pred = { pslot : int; pcmp : Oql_ast.cmp; pconst : Value.t }

let compile_preds db ~cls preds =
  List.map
    (fun { Plan.attr; cmp; const } ->
      { pslot = Database.attr_slot db ~cls attr; pcmp = cmp; pconst = const })
    preds

(* The schema slot of each attribute [select] needs from a side, in the
   harvest's order. *)
let compile_attrs db ~cls attrs =
  Array.of_list (List.map (fun a -> Database.attr_slot db ~cls a) attrs)

(* Harvest exactly the attributes [select] needs from a live Handle, one
   charged access per slot, in slot-array order. *)
let make_payload db h ~slots =
  let n = Array.length slots in
  let vals = Array.make n Value.Nil in
  for i = 0 to n - 1 do
    vals.(i) <- Database.get_att_slot db h slots.(i)
  done;
  { Op.self = Database.handle_rid db h; vals }

let rec index_of attr i = function
  | [] -> invalid_arg ("Exec: attribute " ^ attr ^ " not stowed")
  | a :: rest -> if String.equal a attr then i else index_of attr (i + 1) rest

(* The projection with every name resolved: variables to registers,
   attributes to schema slots (Handle-backed) or payload indexes (stowed).
   Built once per Project, so a row pays only for the value it builds and
   one get_att charge per Handle-backed attribute.  A data tree rather
   than closures: a one-row query pays for building it as much as for its
   row, and the tree is the smaller of the two. *)
type projection =
  | P_const of Value.t
  | P_live_self of int  (** register *)
  | P_stored_self of int
  | P_ident of int
  | P_live_att of int * int  (** register, schema slot *)
  | P_stored_att of int * int  (** register, payload index *)
  | P_tuple of (string * projection) list

let compile_select db ~reg ~sources select =
  let rec comp = function
    | Oql_ast.Const lit -> P_const (Oql_ast.literal_to_value lit)
    | Oql_ast.Var v -> (
        match source v sources with
        | Op.Live _ -> P_live_self (reg v)
        | Op.Stored _ -> P_stored_self (reg v)
        | Op.Ident -> P_ident (reg v))
    | Oql_ast.Path (v, attr) -> (
        match source v sources with
        | Op.Live cls -> P_live_att (reg v, Database.attr_slot db ~cls attr)
        | Op.Stored attrs -> P_stored_att (reg v, index_of attr 0 attrs)
        | Op.Ident -> invalid_arg ("Exec: attribute " ^ attr ^ " not stowed"))
    | Oql_ast.Mk_tuple fields -> P_tuple (List.map (fun (n, e) -> (n, comp e)) fields)
  and source v = function
    | [] -> invalid_arg ("Exec: unknown var " ^ v)
    | (n, s) :: rest -> if String.equal n v then s else source v rest
  in
  comp select

let rec eval_select db (regs : Op.regs) = function
  | P_const v -> v
  | P_live_self r -> Value.Ref (Database.handle_rid db regs.Op.live.(r))
  | P_stored_self r -> Value.Ref regs.Op.stored.(r).Op.self
  | P_ident r -> Value.Ref regs.Op.ident.(r)
  | P_live_att (r, slot) -> Database.get_att_slot db regs.Op.live.(r) slot
  | P_stored_att (r, i) -> regs.Op.stored.(r).Op.vals.(i)
  | P_tuple fields -> Value.Tuple (eval_fields db regs fields)

(* Left to right, as the fields are written. *)
and eval_fields db regs = function
  | [] -> []
  | (n, p) :: rest ->
      let x = eval_select db regs p in
      (n, x) :: eval_fields db regs rest

(* [eval_select]'s [Codec.mem_bytes], without the value: the same
   attribute reads and charges, in the same order, each attribute sized
   where it lies. *)
let ref_mem_bytes = Codec.mem_bytes (Value.Ref Rid.nil)

let rec size_select db (regs : Op.regs) = function
  | P_const v -> Codec.mem_bytes v
  | P_live_self _ | P_stored_self _ | P_ident _ -> ref_mem_bytes
  | P_live_att (r, slot) -> Database.get_att_mem_bytes db regs.Op.live.(r) slot
  | P_stored_att (r, i) -> Codec.mem_bytes regs.Op.stored.(r).Op.vals.(i)
  | P_tuple fields -> size_fields db regs fields

and size_fields db regs = function
  | [] -> 0
  | (_, p) :: rest ->
      let n = size_select db regs p in
      n + size_fields db regs rest

(* A direct recursion rather than [List.for_all] over a closure: this runs
   once per navigated object, and must not allocate to do it. *)
let rec eval_preds db h = function
  | [] -> true
  | { pslot; pcmp; pconst } :: rest ->
      Sim.charge_compare (Database.sim db) 1;
      Oql_ast.eval_cmp pcmp (Database.get_att_slot db h pslot) pconst
      && eval_preds db h rest

let compile_key db ~cls = function
  | Op.K_self -> Database.handle_rid db
  | Op.K_inverse attr ->
      let slot = Database.attr_slot db ~cls attr in
      fun h -> Database.get_ref db h slot

(* Figure 8 right: the matching Rids, gathered in [rids] from [pos] on,
   are sorted so the fetches become (at worst) one sequential sweep, and
   streamed out by [f].  The buffer's simulated memory is released even
   when a downstream operator raises — a failed query must not leak
   claimed RAM.  Rids are distinct immediates, so any correct sort gives
   the same order: the buffer sorts its slice in place. *)
let with_sorted_rids sim rids ~pos ~count f =
  let claim = count * Rid.on_disk_bytes in
  Sim.claim_bytes sim claim;
  match
    Sim.charge_sort sim count;
    Tb_storage.Rid_buf.sort rids ~pos ~len:count;
    f (Tb_storage.Rid_buf.contents rids)
  with
  | () -> Sim.release_bytes sim claim
  | exception e ->
      Sim.release_bytes sim claim;
      raise e

(* External-sort accounting: [n log n] comparisons, plus write+read passes
   when the run does not fit in memory. *)
let charge_external_sort sim ~elems ~bytes =
  Sim.charge_sort sim elems;
  let avail = Tb_sim.Cost_model.available_bytes sim.Sim.cost in
  if bytes > avail && avail > 0 then begin
    let fan_in = 8.0 in
    let passes =
      int_of_float
        (ceil (log (float_of_int bytes /. float_of_int avail) /. log fan_in))
    in
    let pages = (bytes / sim.Sim.cost.Tb_sim.Cost_model.page_size) + 1 in
    for _ = 1 to max 1 passes * pages do
      Sim.charge_disk_write sim;
      Sim.charge_disk_read sim
    done
  end

(* Claim a gathered (key, payload) run and sort it by key.  The sort is
   unstable, so the input order — newest-first, exactly as the gather loop
   prepends — is part of the deterministic contract, so this keeps the
   stdlib heap sort rather than a radix sort: equal keys must keep the tie
   order it has always produced. *)
let claim_and_sort sim kvs ~bytes =
  Sim.claim_bytes sim bytes;
  (* The claim deliberately survives the return — the caller owns it — but
     must not survive a raise below, or the bytes would never be released. *)
  match
    let arr = Array.of_list kvs in
    charge_external_sort sim ~elems:(Array.length arr) ~bytes;
    Array.sort (fun (a, _) (b, _) -> Rid.compare a b) arr;
    arr
  with
  | arr -> arr
  | exception e ->
      Sim.release_bytes sim bytes;
      raise e

let release_bytes sim n = Sim.release_bytes sim n

(* Merge two sorted runs.  Runs that do not fit in memory together are
   streamed through disk once more (write out, read back for the merge);
   parents' keys are unique (their own Rids). *)
let merge_join sim ~bytes ~parents ~children emit =
  if Sim.over_memory sim then begin
    let pages = (bytes / sim.Sim.cost.Tb_sim.Cost_model.page_size) + 1 in
    for _ = 1 to pages do
      Sim.charge_disk_write sim;
      Sim.charge_disk_read sim
    done
  end;
  let np = Array.length parents and nc = Array.length children in
  let i = ref 0 in
  for j = 0 to nc - 1 do
    let ckey, cp = children.(j) in
    while !i < np && Rid.compare (fst parents.(!i)) ckey < 0 do
      Sim.charge_compare sim 1;
      incr i
    done;
    Sim.charge_compare sim 1;
    if !i < np && Rid.equal (fst parents.(!i)) ckey then
      emit (snd parents.(!i)) cp
  done

(* --- spilled partitions (hybrid hashing, DeWitt/Katz/Olken-style) --- *)

(* A spilled payload travels as an encoded tuple whose first fields are the
   join key and the payload's identity; the attribute names come from the
   harvesting operator, so the record is byte for byte what a named
   payload would encode to:
   [\[@key: Ref key; @self: Ref self; name_1: v_1; ...\]].  It is written
   field by field into one reused buffer, behind the heap file's framing
   room, and read back field by field off the page. *)
type spill = {
  files : Heap_file.t array;
  names : string list;
  nvals : int;
  fixed : int;  (** record bytes besides the values' encodings *)
  mutable buf : bytes;
}

let key_name = "@key"
let self_name = "@self"

let new_spill db ~names ~buckets =
  let fixed =
    List.fold_left
      (fun acc n -> acc + Codec.field_name_bytes n)
      (Codec.tuple_header_bytes
      + Codec.field_name_bytes key_name + Codec.ref_bytes
      + Codec.field_name_bytes self_name + Codec.ref_bytes)
      names
  in
  {
    files =
      Array.init buckets (fun _ -> Heap_file.create_temp (Database.stack db));
    names;
    nvals = List.length names;
    fixed;
    buf = Bytes.create (Heap_file.frame_room + fixed + 64);
  }

(* Name and value of each payload field from index [i], at [pos]. *)
let rec put_fields names vals buf i pos =
  match names with
  | [] -> pos
  | n :: rest ->
      let pos = Codec.field_name_into n buf ~pos in
      put_fields rest vals buf (i + 1) (Codec.encode_into vals.(i) buf ~pos)

let spill sp bucket ~key (payload : Op.payload) =
  let vals = payload.Op.vals in
  let len = ref sp.fixed in
  for i = 0 to sp.nvals - 1 do
    len := !len + Codec.encoded_size vals.(i)
  done;
  let len = !len in
  if Bytes.length sp.buf < Heap_file.frame_room + len then
    sp.buf <- Bytes.create (2 * (Heap_file.frame_room + len));
  let buf = sp.buf in
  let pos =
    Codec.tuple_header_into ~fields:(2 + sp.nvals) buf ~pos:Heap_file.frame_room
  in
  let pos = Codec.field_name_into key_name buf ~pos in
  let pos = Codec.ref_into key buf ~pos in
  let pos = Codec.field_name_into self_name buf ~pos in
  let pos = Codec.ref_into payload.Op.self buf ~pos in
  if put_fields sp.names vals buf 0 pos <> Heap_file.frame_room + len then
    invalid_arg "Operators.spill: payload does not match its names";
  ignore (Heap_file.insert_body sp.files.(bucket) buf ~len)

(* Page by page, in place: the key and identity are read as Rids, the
   names skipped, and only the payload values decoded. *)
let iter_spilled sp bucket f =
  let file = sp.files.(bucket) in
  let nvals = sp.nvals in
  let record _ buf pos _ =
    if Codec.tuple_fields buf ~pos <> 2 + nvals then
      invalid_arg "Exec: corrupt spill record";
    let pos = Codec.skip_field_name buf ~pos:(pos + Codec.tuple_header_bytes) in
    let key = Codec.ref_at buf ~pos in
    let pos = Codec.skip_field_name buf ~pos:(pos + Codec.ref_bytes) in
    let self = Codec.ref_at buf ~pos in
    let vals = Array.make nvals Value.Nil in
    let pos = ref (pos + Codec.ref_bytes) in
    for i = 0 to nvals - 1 do
      let at = Codec.skip_field_name buf ~pos:!pos in
      vals.(i) <- Codec.decode_value buf ~pos:at;
      pos := Codec.skip buf ~pos:at
    done;
    f key { Op.self; vals }
  in
  for page = 0 to Heap_file.page_count file - 1 do
    Heap_file.iter_page_spans file ~page record
  done

let spill_file sp bucket = sp.files.(bucket)
let release_spill db sp = Array.iter (Database.release_temp db) sp.files
