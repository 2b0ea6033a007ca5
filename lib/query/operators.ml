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
  List.fold_left
    (fun acc (_, v) -> acc + 4 + Tb_store.Codec.encoded_size v)
    Rid.on_disk_bytes p.Op.attrs

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

(* [(name, slot)] for the attributes [select] needs from a side. *)
let compile_attrs db ~cls attrs =
  List.map (fun a -> (a, Database.attr_slot db ~cls a)) attrs

(* Harvest exactly the attributes [select] needs from a live Handle. *)
let make_payload db h ~slots =
  {
    Op.self = Database.handle_rid db h;
    attrs = List.map (fun (a, slot) -> (a, Database.get_att_slot db h slot)) slots;
  }

let eval_select db select ~lookup =
  let rec ev = function
    | Oql_ast.Const lit -> Oql_ast.literal_to_value lit
    | Oql_ast.Var v -> (
        match lookup v with
        | Op.Live h -> Value.Ref (Database.handle_rid db h)
        | Op.Stored p -> Value.Ref p.Op.self)
    | Oql_ast.Path (v, attr) -> (
        match lookup v with
        | Op.Live h -> Database.get_att db h attr
        | Op.Stored p -> (
            match Value.assoc attr p.Op.attrs with
            | x -> x
            | exception Not_found ->
                invalid_arg ("Exec: attribute " ^ attr ^ " not stowed")))
    | Oql_ast.Mk_tuple fields ->
        Value.Tuple (List.map (fun (n, e) -> (n, ev e)) fields)
  in
  ev select

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
  | Value.Ref prid -> Some prid
  | Value.Nil -> None
  | _ -> invalid_arg "Exec: inverse attribute is not a reference"

let compile_key db ~cls = function
  | Op.K_self -> fun h -> Some (Database.handle_rid db h)
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
   join key. *)
let spill_record ~key (payload : Op.payload) =
  Tb_store.Codec.encode
    (Value.Tuple
       (("@key", Value.Ref key)
       :: ("@self", Value.Ref payload.Op.self)
       :: payload.Op.attrs))

let unspill_record body =
  match Tb_store.Codec.decode_exn body with
  | Value.Tuple (("@key", Value.Ref key) :: ("@self", Value.Ref self) :: attrs)
    ->
      (key, { Op.self; attrs })
  | _ -> invalid_arg "Exec: corrupt spill record"

let new_spill_files db n =
  Array.init n (fun _ -> Tb_storage.Heap_file.create_temp (Database.stack db))

let spill file ~key payload =
  ignore (Tb_storage.Heap_file.insert file (spill_record ~key payload))
