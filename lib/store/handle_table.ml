module Rid = Tb_storage.Rid

(* The index from Rid to Handle is an open-addressing table over the
   immediate Rid ints: linear probing from a multiplicative hash, deletion
   by backward shift (no tombstones), growth at half load.  [Rid.nil] marks
   an empty cell.  The zombie FIFO is a ring of Rids that keeps stale
   entries exactly as a queue would.  Nothing here allocates per Handle;
   only growth does. *)
type t = {
  sim : Tb_sim.Sim.t;
  kind : Tb_sim.Cost_model.handle_kind;
  mem_bytes : int;  (* simulated bytes of one Handle of [kind] *)
  slab : Handle.slab;
  mutable keys : Rid.t array;  (* capacity a power of two *)
  mutable vals : Handle.t array;
  mutable bits : int;  (* log2 of the capacity *)
  mutable count : int;
  mutable ring : Rid.t array;  (* capacity a power of two *)
  mutable head : int;
  mutable len : int;
  zombie_limit : int;
}

let initial_bits = 12

let create sim ~kind ~zombie_limit =
  if zombie_limit < 0 then invalid_arg "Handle_table.create: zombie_limit";
  {
    sim;
    kind;
    mem_bytes = Tb_sim.Cost_model.handle_bytes sim.Tb_sim.Sim.cost kind;
    slab = Handle.create_slab ();
    keys = Array.make (1 lsl initial_bits) Rid.nil;
    vals = Array.make (1 lsl initial_bits) Handle.none;
    bits = initial_bits;
    count = 0;
    ring = Array.make 8 Rid.nil;
    head = 0;
    len = 0;
    zombie_limit;
  }

let kind t = t.kind
let slab t = t.slab

(* --- the index --- *)

(* Fibonacci-style multiplicative hash: the top [bits] bits of the 63-bit
   product.  Packed Rids of one page differ only in their low bits, which
   the multiplication spreads over the whole word. *)
let home bits (rid : Rid.t) = ((rid :> int) * 0x2545_F491_4F6C_DD1D) lsr (63 - bits)

let is_empty (k : Rid.t) = (k :> int) < 0
let probe_start t rid = home t.bits rid

(* The probe loops are toplevel functions taking every value they use: a
   local closure over [keys] and [rid] would be allocated on every call. *)
let rec probe_find (keys : Rid.t array) mask (rid : Rid.t) i =
  let k = keys.(i) in
  if (k :> int) = (rid :> int) then i
  else if is_empty k then -1
  else probe_find keys mask rid ((i + 1) land mask)

let find_cell t (rid : Rid.t) =
  if Rid.is_nil rid then -1
  else probe_find t.keys (Array.length t.keys - 1) rid (home t.bits rid)

let find_resident t rid =
  let i = find_cell t rid in
  if i < 0 then Handle.none else t.vals.(i)

(* Put [rid -> h], [rid] absent, in the first empty cell of its probe
   run. *)
let place keys vals bits (rid : Rid.t) h =
  let mask = Array.length keys - 1 in
  let i = ref (home bits rid) in
  while not (is_empty keys.(!i)) do
    i := (!i + 1) land mask
  done;
  keys.(!i) <- rid;
  vals.(!i) <- h

let rehash t =
  let keys = t.keys and vals = t.vals in
  let bits = t.bits + 1 in
  t.keys <- Array.make (1 lsl bits) Rid.nil;
  t.vals <- Array.make (1 lsl bits) Handle.none;
  t.bits <- bits;
  Array.iteri
    (fun i k -> if not (is_empty k) then place t.keys t.vals bits k vals.(i))
    keys

(* Backward-shift deletion of the entry at cell [hole]: walk the probe run
   after the hole and move back every entry whose home does not lie
   cyclically in (hole, j], so no lookup ever stops at the hole before
   reaching its key. *)
let remove_cell t hole =
  t.count <- t.count - 1;
  let keys = t.keys and vals = t.vals in
  let mask = Array.length keys - 1 in
  let hole = ref hole and j = ref ((hole + 1) land mask) in
  while not (is_empty keys.(!j)) do
    let k = keys.(!j) in
    let h = home t.bits k in
    let stays =
      if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
    in
    if not stays then begin
      keys.(!hole) <- k;
      vals.(!hole) <- vals.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  keys.(!hole) <- Rid.nil;
  vals.(!hole) <- Handle.none

(* --- the zombie ring --- *)

let ring_push t rid =
  let cap = Array.length t.ring in
  if t.len = cap then begin
    let ring = Array.make (2 * cap) Rid.nil in
    for i = 0 to t.len - 1 do
      ring.(i) <- t.ring.((t.head + i) land (cap - 1))
    done;
    t.ring <- ring;
    t.head <- 0
  end;
  t.ring.((t.head + t.len) land (Array.length t.ring - 1)) <- rid;
  t.len <- t.len + 1

let ring_pop t =
  let rid = t.ring.(t.head) in
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  rid

(* --- Handle lifetimes --- *)

(* Pop zombies until the pool is back under its limit.  Ring entries can be
   stale (resurrected or re-queued rids); only genuinely unreferenced
   residents are destroyed. *)
let trim t =
  while t.len > t.zombie_limit do
    let i = find_cell t (ring_pop t) in
    if i >= 0 then begin
      let h = t.vals.(i) in
      if Handle.refcount t.slab h = 0 then begin
        Tb_sim.Sim.charge_handle_free t.sim t.kind;
        Tb_sim.Sim.release_bytes t.sim t.mem_bytes;
        remove_cell t i;
        Handle.free t.slab h
      end
    end
  done

let acquire t h =
  Tb_sim.Sim.charge_handle_hit t.sim;
  Handle.set_refcount t.slab h (Handle.refcount t.slab h + 1);
  h

let reserve t =
  Tb_sim.Sim.charge_handle_alloc t.sim t.kind;
  Tb_sim.Sim.claim_bytes t.sim t.mem_bytes

let install t h =
  if 2 * (t.count + 1) > Array.length t.keys then rehash t;
  t.count <- t.count + 1;
  place t.keys t.vals t.bits (Handle.rid t.slab h) h;
  h

let unreference t h =
  let rc = Handle.refcount t.slab h in
  if rc <= 0 then invalid_arg "Handle_table.unreference: refcount already zero";
  Handle.set_refcount t.slab h (rc - 1);
  if rc = 1 then begin
    ring_push t (Handle.rid t.slab h);
    trim t
  end

let resident_count t = t.count

(* Drop every resident Handle, [charge] deciding whether each destruction
   is priced.  The order of the walk (cell order) cannot move a clock bit:
   every charge in it is the same constant pair, a free of [t.kind] and a
   release of [t.mem_bytes]. *)
let drop_all t ~charge =
  Array.iteri
    (fun i k ->
      if not (is_empty k) then begin
        if charge then Tb_sim.Sim.charge_handle_free t.sim t.kind;
        Tb_sim.Sim.release_bytes t.sim t.mem_bytes;
        Handle.free t.slab t.vals.(i)
      end)
    t.keys;
  Array.fill t.keys 0 (Array.length t.keys) Rid.nil;
  Array.fill t.vals 0 (Array.length t.vals) Handle.none;
  t.count <- 0;
  t.head <- 0;
  t.len <- 0

let flush t = drop_all t ~charge:true
let discard t = drop_all t ~charge:false
