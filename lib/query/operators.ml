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
module Arena = Tb_storage.Arena
module Rid = Tb_storage.Rid
module Sim = Tb_sim.Sim

(* --- payloads in the arena ---

   A payload is the object's Rid ([Rid.encode_into], [Rid.on_disk_bytes]
   long) followed by its values' encodings, copied byte for byte from
   where they lie: a record on a page or a spilled record.  Nothing is
   decoded until a kept row's projection reads a value. *)

(* The position of value [i] of the payload at [off], in [buf], its
   chunk. *)
let value_pos buf off i =
  let pos = ref (Arena.pos off + Rid.on_disk_bytes) in
  for _ = 1 to i do
    pos := Codec.skip buf ~pos:!pos
  done;
  !pos

(* The simulated size: the Rid, then per value 4 bytes and its encoding. *)
let payload_bytes arena off ~nvals =
  let buf = Arena.buf arena off in
  (4 * nvals) + value_pos buf off nvals - Arena.pos off

let stow arena ~self src at =
  let n = Array.length at in
  let len = ref Rid.on_disk_bytes in
  for i = 0 to n - 1 do
    len := !len + Codec.skip src ~pos:at.(i) - at.(i)
  done;
  let off = Arena.alloc arena !len in
  let dst = Arena.buf arena off in
  let pos = Arena.pos off in
  Rid.encode_into self dst ~pos;
  let pos = ref (pos + Rid.on_disk_bytes) in
  for i = 0 to n - 1 do
    let l = Codec.skip src ~pos:at.(i) - at.(i) in
    Bytes.blit src at.(i) dst !pos l;
    pos := !pos + l
  done;
  off

let stored_self arena off = Rid.decode (Arena.buf arena off) ~pos:(Arena.pos off)

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
   harvest's order, and room for where each lies in a row's record. *)
type harvest = { slots : int array; at : int array }

let compile_attrs db ~cls attrs =
  let slots = Array.of_list (List.map (fun a -> Database.attr_slot db ~cls a) attrs) in
  { slots; at = Array.make (Array.length slots) 0 }

(* Harvest exactly the attributes [select] needs from a live Handle, one
   charged access per slot, in slot-array order, then copy them. *)
let make_payload db h hv =
  let n = Array.length hv.slots in
  for i = 0 to n - 1 do
    hv.at.(i) <- Database.get_att_pos db h hv.slots.(i)
  done;
  stow (Database.arena db) ~self:(Database.handle_rid db h) (Database.packed_buf db h)
    hv.at

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
  | P_stored_self r -> Value.Ref (stored_self (Database.arena db) regs.Op.stored.(r))
  | P_ident r -> Value.Ref regs.Op.ident.(r)
  | P_live_att (r, slot) -> Database.get_att_slot db regs.Op.live.(r) slot
  | P_stored_att (r, i) ->
      let off = regs.Op.stored.(r) in
      let buf = Arena.buf (Database.arena db) off in
      Codec.decode_value buf ~pos:(value_pos buf off i)
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
  | P_stored_att (r, i) ->
      let off = regs.Op.stored.(r) in
      let buf = Arena.buf (Database.arena db) off in
      Codec.mem_bytes_at buf ~pos:(value_pos buf off i)
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

(* A sort run on the arena's entries stack: [len] (key, payload offset)
   pairs from cell [pairs] on, in arrival order, then from cell [order]
   the run's order as pair numbers. *)
type run = { pairs : int; order : int; len : int }

let run_length r = r.len

let push_pair arena ~(key : Rid.t) off =
  let ents = Arena.entries arena in
  let c = Arena.grow ents 2 in
  Arena.set ents c (key :> int);
  Arena.set ents (c + 1) off

(* Stdlib's [Array.sort] (a ternary heap sort), over cells [order ..
   order + l - 1] of [d], comparing the keys of the pairs those cells name by
   [Rid.compare] (the packed ints' order).  The same comparisons in the
   same order give the same permutation, equal keys included; only the
   stdlib's [Bottom] exception, raised and allocated once per element,
   becomes the son index -1. *)
let heap_sort d ~pairs ~order l =
  let get i = Arena.get d (order + i) and set i x = Arena.set d (order + i) x in
  let key x = Arena.get d (pairs + (2 * x)) in
  let cmp x y = Int.compare (key x) (key y) in
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if cmp (get i31) (get (i31 + 1)) < 0 then i31 + 1 else i31 in
      if cmp (get x) (get (i31 + 2)) < 0 then i31 + 2 else x
    end
    else if i31 + 1 < l && cmp (get i31) (get (i31 + 1)) < 0 then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let rec trickle l i e =
    let j = maxson l i in
    if j >= 0 && cmp (get j) e > 0 then begin
      set i (get j);
      trickle l j e
    end
    else set i e
  in
  let rec bubble l i =
    let j = maxson l i in
    if j < 0 then i
    else begin
      set i (get j);
      bubble l j
    end
  in
  let rec trickleup i e =
    let father = (i - 1) / 3 in
    if cmp (get father) e < 0 then begin
      set i (get father);
      if father > 0 then trickleup father e else set 0 e
    end
    else set i e
  in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i (get i)
  done;
  for i = l - 1 downto 2 do
    let e = get i in
    set i (get 0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = get 1 in
    set 1 (get 0);
    set 0 e
  end

(* Claim a gathered run and sort it by key.  The sort is unstable, so
   the order it starts from — newest first, as the gather loop once
   prepended to a list — is part of the deterministic contract, and equal
   keys keep the tie order it has always produced. *)
let claim_and_sort sim arena ~pairs ~bytes =
  Sim.claim_bytes sim bytes;
  (* The claim deliberately survives the return — the caller owns it — but
     must not survive a raise below, or the bytes would never be released. *)
  match
    let ents = Arena.entries arena in
    let len = (Arena.length ents - pairs) / 2 in
    let order = Arena.grow ents len in
    for i = 0 to len - 1 do
      Arena.set ents (order + i) (len - 1 - i)
    done;
    charge_external_sort sim ~elems:len ~bytes;
    heap_sort ents ~pairs ~order len;
    { pairs; order; len }
  with
  | r -> r
  | exception e ->
      Sim.release_bytes sim bytes;
      raise e

let release_bytes sim n = Sim.release_bytes sim n

(* Merge two sorted runs.  Runs that do not fit in memory together are
   streamed through disk once more (write out, read back for the merge);
   parents' keys are unique (their own Rids). *)
let merge_join sim arena ~bytes ~parents ~children emit =
  if Sim.over_memory sim then begin
    let pages = (bytes / sim.Sim.cost.Tb_sim.Cost_model.page_size) + 1 in
    for _ = 1 to pages do
      Sim.charge_disk_write sim;
      Sim.charge_disk_read sim
    done
  end;
  let d = Arena.entries arena in
  let cell r i = r.pairs + (2 * Arena.get d (r.order + i)) in
  let np = parents.len in
  let i = ref 0 in
  for j = 0 to children.len - 1 do
    let c = cell children j in
    let ckey = Arena.get d c in
    while !i < np && Int.compare (Arena.get d (cell parents !i)) ckey < 0 do
      Sim.charge_compare sim 1;
      incr i
    done;
    Sim.charge_compare sim 1;
    if !i < np && Int.equal (Arena.get d (cell parents !i)) ckey then
      emit (Arena.get d (cell parents !i + 1)) (Arena.get d (c + 1))
  done

(* --- spilled partitions (hybrid hashing, DeWitt/Katz/Olken-style) --- *)

(* A spilled payload travels as an encoded tuple whose first fields are the
   join key and the payload's identity; the attribute names come from the
   harvesting operator, so the record is byte for byte what a named
   payload would encode to:
   [\[@key: Ref key; @self: Ref self; name_1: v_1; ...\]].  It is written
   field by field into one reused buffer, behind the heap file's framing
   room, each value's bytes copied from the payload, and read back into
   the arena the same way, nothing decoded. *)
type spill = {
  files : Heap_file.t array;
  arena : Arena.t;
  names : string list;
  nvals : int;
  fixed : int;  (** record bytes besides the values' encodings *)
  at : int array;  (** where each value of a record being read lies *)
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
  let nvals = List.length names in
  {
    files =
      Array.init buckets (fun _ -> Heap_file.create_temp (Database.stack db));
    arena = Database.arena db;
    names;
    nvals;
    fixed;
    at = Array.make nvals 0;
    buf = Bytes.create (Heap_file.frame_room + fixed + 64);
  }

(* Each name, then the next value's bytes from [src] at [from]. *)
let rec put_fields names src from buf pos =
  match names with
  | [] -> pos
  | n :: rest ->
      let pos = Codec.field_name_into n buf ~pos in
      let stop = Codec.skip src ~pos:from in
      Bytes.blit src from buf pos (stop - from);
      put_fields rest src stop buf (pos + stop - from)

let spill sp bucket ~key off =
  let src = Arena.buf sp.arena off in
  let first = Arena.pos off + Rid.on_disk_bytes in
  let len = sp.fixed + value_pos src off sp.nvals - first in
  if Bytes.length sp.buf < Heap_file.frame_room + len then
    sp.buf <- Bytes.create (2 * (Heap_file.frame_room + len));
  let buf = sp.buf in
  let pos =
    Codec.tuple_header_into ~fields:(2 + sp.nvals) buf ~pos:Heap_file.frame_room
  in
  let pos = Codec.field_name_into key_name buf ~pos in
  let pos = Codec.ref_into key buf ~pos in
  let pos = Codec.field_name_into self_name buf ~pos in
  let pos = Codec.ref_into (stored_self sp.arena off) buf ~pos in
  ignore (put_fields sp.names src first buf pos);
  ignore (Heap_file.insert_body sp.files.(bucket) buf ~len)

(* Page by page, in place: the key and identity are read as Rids, the
   names skipped, and the payload values copied into the arena. *)
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
    let pos = ref (pos + Codec.ref_bytes) in
    for i = 0 to nvals - 1 do
      let at = Codec.skip_field_name buf ~pos:!pos in
      sp.at.(i) <- at;
      pos := Codec.skip buf ~pos:at
    done;
    f key (stow sp.arena ~self buf sp.at)
  in
  for page = 0 to Heap_file.page_count file - 1 do
    Heap_file.iter_page_spans file ~page record
  done

let spill_file sp bucket = sp.files.(bucket)
let release_spill db sp = Array.iter (Database.release_temp db) sp.files
