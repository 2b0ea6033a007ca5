(* The charging kernels behind the physical operators.

   treelint's R1 discipline is split along this boundary: these functions
   are the modeled engine components and may call Sim.charge_* / claim
   simulated memory; the interpreter in Exec orchestrates them and may
   not charge anything itself.  Every kernel reproduces the charge order
   of the pre-operator monolithic drivers verbatim — the golden counter
   fingerprint depends on the sequence, not just the totals. *)

module Value = Tb_store.Value
module Database = Tb_store.Database
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

(* A direct recursion rather than [List.for_all] over a closure: this runs
   once per navigated object, and must not allocate to do it. *)
let rec eval_preds db h = function
  | [] -> true
  | { pslot; pcmp; pconst } :: rest ->
      Sim.charge_compare (Database.sim db) 1;
      Oql_ast.eval_cmp pcmp (Database.get_att_slot db h pslot) pconst
      && eval_preds db h rest

let key_of_inverse db inv_slot h =
  match Database.get_att_slot db h inv_slot with
  | Value.Ref prid -> prid
  | Value.Nil -> Rid.nil
  | _ -> invalid_arg "Exec: inverse attribute is not a reference"

let compile_key db ~cls = function
  | Op.K_self -> Database.handle_rid db
  | Op.K_inverse attr ->
      let slot = Database.attr_slot db ~cls attr in
      key_of_inverse db slot

(* Figure 8 right: the matching Rids are buffered, sorted so the fetches
   become (at worst) one sequential sweep, and streamed out.  The buffer's
   simulated memory is released even when a downstream operator raises —
   a failed query must not leak claimed RAM.  Rids are distinct immediates,
   so any correct sort gives the same order: Rid.sort radix-sorts the
   packed ints. *)
let with_sorted_rids sim ~rids ~count f =
  let claim = count * Rid.on_disk_bytes in
  Sim.claim_bytes sim claim;
  Fun.protect
    ~finally:(fun () -> Sim.release_bytes sim claim)
    (fun () ->
      Sim.charge_sort sim count;
      let arr = Array.of_list rids in
      Rid.sort arr;
      f arr)

let sorted_rids sim ~rids ~count f =
  with_sorted_rids sim ~rids ~count (fun arr -> Array.iter f arr)

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
   stdlib heap sort rather than Rid.sort: equal keys must keep the tie
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
  if Sim.excess_ratio sim > 0.0 then begin
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

(* A spilled payload travels as an encoded tuple whose first field is the
   join key; the attribute names come from the harvesting operator, so the
   record is byte for byte what a named payload would encode to. *)
let spill_record ~names ~key (payload : Op.payload) =
  let vals = payload.Op.vals in
  let rec fields i = function
    | [] -> []
    | n :: rest -> (n, vals.(i)) :: fields (i + 1) rest
  in
  Tb_store.Codec.encode
    (Value.Tuple
       (("@key", Value.Ref key)
       :: ("@self", Value.Ref payload.Op.self)
       :: fields 0 names))

let unspill_record body =
  match Tb_store.Codec.decode_exn body with
  | Value.Tuple (("@key", Value.Ref key) :: ("@self", Value.Ref self) :: attrs)
    ->
      (key, { Op.self; vals = Array.of_list (List.map snd attrs) })
  | _ -> invalid_arg "Exec: corrupt spill record"

let new_spill_files db n =
  Array.init n (fun _ -> Tb_storage.Heap_file.create_temp (Database.stack db))

let spill file ~names ~key payload =
  ignore (Tb_storage.Heap_file.insert file (spill_record ~names ~key payload))
