(* Packed execution: predicate evaluation and payload harvest straight off
   slotted-page record bytes.

   A predicate + key + payload request against a class is compiled once per
   operator into an *offset program*: a slot-ordered seek pass that records
   the byte position of every needed attribute (one [Codec.skip] walk over
   the record prefix — variable-length attributes make constant offsets
   unsound, any slot may hold a 1-byte Nil), then evaluation steps that
   compare or decode at those positions.  Rejected rows decode nothing: an
   integer predicate is a tag check and a 4-byte load, a string predicate a
   byte loop — no [Value.t], no Handle attribute walk.

   Charge discipline: evaluation re-issues exactly the charges the Handle
   path makes, in the same order — per predicate a [charge_compare] then a
   [charge_get_att]; per key / payload attribute a [charge_get_att] — so the
   golden counter fingerprint is byte-identical with packed execution on or
   off.  The seek pass itself is charge-free host work, exactly like the
   offset bookkeeping the Handle path used to do.

   This module is the single place the query layer reads raw record bytes
   (treelint R5 whitelists its [Bytes.unsafe_get]); everything it reads was
   bounds-established by [Codec.skip] over the same buffer. *)

module Value = Tb_store.Value
module Database = Tb_store.Database
module Codec = Tb_store.Codec
module Rid = Tb_storage.Rid
module Sim = Tb_sim.Sim

type const = C_int of int | C_string of string

type pinstr = {
  src : int;  (* scratch register holding the attribute's position *)
  pcmp : Oql_ast.cmp;
  pconst : const;
  pfallback : Value.t;  (* original constant, for the decode fallback *)
}

(* One step of the seek pass: skip [skips] encoded values from the cursor,
   then record the cursor into scratch register [dst]. *)
type seek = { skips : int; dst : int }

type prog = {
  seeks : seek array;
  scratch : int array;  (* absolute attribute offsets, filled per record *)
  preds : pinstr array;  (* in predicate order *)
  payload : int array;  (* register of each payload attribute, in harvest order *)
  inverse : int;  (* register of the inverse reference; -1 for K_self *)
}

(* A predicate is packed-compilable when its constant compares by raw
   bytes: ints (tag + int32) and strings (tag + u16 length + bytes).
   Decided from the constant alone so {!Planner.lower} stays pure — a
   runtime tag mismatch falls back to decoding (see [eval_preds]). *)
let compilable preds =
  List.for_all
    (fun (p : Plan.attr_pred) ->
      match p.Plan.const with
      | Value.Int _ | Value.String _ -> true
      | Value.Nil | Value.Real _ | Value.Bool _ | Value.Char _ | Value.Ref _
      | Value.Tuple _ | Value.Set _ | Value.List _ | Value.Big_set _ ->
          false)
    preds

let compile db ~cls ?(preds = []) ?(key = Op.K_self) ?(attrs = []) () =
  let pred_slots =
    List.map (fun (p : Plan.attr_pred) -> Database.attr_slot db ~cls p.Plan.attr) preds
  in
  let payload_slots = List.map (fun a -> Database.attr_slot db ~cls a) attrs in
  let inverse_slot =
    match key with
    | Op.K_self -> None
    | Op.K_inverse attr -> Some (Database.attr_slot db ~cls attr)
  in
  let needed =
    List.sort_uniq Int.compare
      (pred_slots @ payload_slots
      @ (match inverse_slot with Some s -> [ s ] | None -> []))
  in
  let reg_of_slot slot =
    let rec go i = function
      | [] -> invalid_arg "Packed.compile: unregistered slot"
      | s :: _ when s = slot -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 needed
  in
  let seeks =
    let prev = ref 0 in
    Array.of_list
      (List.mapi
         (fun i slot ->
           let skips = slot - !prev in
           prev := slot;
           { skips; dst = i })
         needed)
  in
  let preds =
    Array.of_list
      (List.map2
         (fun (p : Plan.attr_pred) slot ->
           {
             src = reg_of_slot slot;
             pcmp = p.Plan.cmp;
             pconst =
               (match p.Plan.const with
               | Value.Int k -> C_int k
               | Value.String s -> C_string s
               | _ -> invalid_arg "Packed.compile: non-compilable constant");
             pfallback = p.Plan.const;
           })
         preds pred_slots)
  in
  {
    seeks;
    scratch = Array.make (List.length needed) 0;
    preds;
    payload = Array.of_list (List.map reg_of_slot payload_slots);
    inverse = (match inverse_slot with Some s -> reg_of_slot s | None -> -1);
  }

(* Charge-free position pass over a packed handle's record: revalidate
   its page position, then one cursor walk from the first attribute,
   recording where each needed slot's encoding starts.  Returns the page
   buffer the recorded positions index into.  Plain loops: nothing here
   allocates. *)
let seek db prog h =
  let buf = Database.packed_buf db h in
  let cursor = ref (Database.packed_body db h) in
  for i = 0 to Array.length prog.seeks - 1 do
    let { skips; dst } = prog.seeks.(i) in
    for _ = 1 to skips do
      cursor := Codec.skip buf ~pos:!cursor
    done;
    prog.scratch.(dst) <- !cursor
  done;
  buf

let apply_cmp cmp ord =
  match cmp with
  | Oql_ast.Lt -> ord < 0
  | Oql_ast.Le -> ord <= 0
  | Oql_ast.Gt -> ord > 0
  | Oql_ast.Ge -> ord >= 0
  | Oql_ast.Eq -> ord = 0
  | Oql_ast.Ne -> ord <> 0

(* String.compare on the encoded bytes, without building the string. *)
let cmp_str buf base len s =
  let slen = String.length s in
  let n = if len < slen then len else slen in
  let rec go i =
    if i >= n then Int.compare len slen
    else
      let c = Char.compare (Bytes.unsafe_get buf (base + i)) (String.unsafe_get s i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Per predicate: the Handle path's exact charges (one compare, one
   get_att), then a raw-byte comparison at the recorded position.  A tag
   other than the constant's — a Nil attribute, say — falls back to
   decoding the value and [Oql_ast.eval_cmp], reproducing the Handle
   path's results and errors bit for bit. *)
let eval_preds db prog buf =
  let sim = Database.sim db in
  let n = Array.length prog.preds in
  let i = ref 0 in
  let pass = ref true in
  while !pass && !i < n do
    let p = prog.preds.(!i) in
    Sim.charge_compare sim 1;
    Sim.charge_get_att sim;
    let pos = prog.scratch.(p.src) in
    let tag = Char.code (Bytes.unsafe_get buf pos) in
    (pass :=
       match p.pconst with
       | C_int k when tag = Codec.tag_int ->
           apply_cmp p.pcmp
             (Int.compare (Int32.to_int (Bytes.get_int32_le buf (pos + 1))) k)
       | C_string s when tag = Codec.tag_string ->
           apply_cmp p.pcmp
             (cmp_str buf (pos + 3) (Bytes.get_uint16_le buf (pos + 1)) s)
       | C_int _ | C_string _ ->
           Oql_ast.eval_cmp p.pcmp (Codec.decode_value buf ~pos) p.pfallback);
    incr i
  done;
  !pass

(* Join key off the record bytes: the object's own identity (free, as in
   [Operators.compile_key]) or the stored inverse reference (one get_att
   charge, Rid decoded straight from the encoding; [Rid.nil] on Nil). *)
let eval_key db prog buf ~self =
  if prog.inverse < 0 then self
  else begin
    Sim.charge_get_att (Database.sim db);
    let pos = prog.scratch.(prog.inverse) in
    let tag = Char.code (Bytes.unsafe_get buf pos) in
    if tag = Codec.tag_ref then Rid.decode buf ~pos:(pos + 1)
    else if tag = Codec.tag_nil then Rid.nil
    else invalid_arg "Exec: inverse attribute is not a reference"
  end

(* Harvest the payload attributes in harvest order: per attribute the
   Handle path's get_att charge, then one decode at the recorded position
   (with the payload's record and array, the packed path's only per-row
   allocation, for rows that survived the predicates). *)
let make_payload db prog buf ~self =
  let sim = Database.sim db in
  let n = Array.length prog.payload in
  let vals = Array.make n Value.Nil in
  for i = 0 to n - 1 do
    Sim.charge_get_att sim;
    vals.(i) <- Codec.decode_value buf ~pos:prog.scratch.(prog.payload.(i))
  done;
  { Op.self; vals }
