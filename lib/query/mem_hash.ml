(* A Rid-keyed table of insertion-ordered int groups over the arena's two
   int stacks.  On the entries stack, an entry is two cells, its value and
   the next entry of its group (-1 at the end), and a group is three, its
   key and its first and last entry, so an add appends in O(1) and a probe
   walks the group in insertion order.  The key slots, one cell each on the
   slots stack, hold the group of their key or -1; they are open-addressed
   with linear probing, at most half full, and double in place, which only
   the topmost table may do. *)

module Arena = Tb_storage.Arena

type t = {
  sim : Tb_sim.Sim.t;
  ents : Arena.stack;
  slots : Arena.stack;
  ebase : int;  (* the entries stack's length when the table opened *)
  sbase : int;  (* the first key slot *)
  mutable mask : int;  (* slot count - 1, the count a power of two *)
  mutable groups : int;
  mutable bytes : int;
  mutable disposed : bool;
}

let entry_overhead = 16
let group_overhead = 40
let initial_slots = 64

(* Bucket order is internal (nothing iterates the slots), so the packed
   key is mixed directly rather than through [Rid.hash]. *)
let[@inline] hash k =
  let h = k * 0x2545_F491_4F6C_DD1D in
  h lxor (h lsr 31)

let clear slots base n =
  for i = base to base + n - 1 do
    Arena.set slots i (-1)
  done

let create sim arena =
  let ents = Arena.entries arena and slots = Arena.slots arena in
  let sbase = Arena.grow slots initial_slots in
  clear slots sbase initial_slots;
  {
    sim;
    ents;
    slots;
    ebase = Arena.length ents;
    sbase;
    mask = initial_slots - 1;
    groups = 0;
    bytes = 0;
    disposed = false;
  }

(* The slot of [k]'s group, or the empty slot where it goes, in the slots
   from [base] on. *)
let rec probe t base mask k i =
  let c = base + i in
  let g = Arena.get t.slots c in
  if g < 0 || Int.equal (Arena.get t.ents g) k then c
  else probe t base mask k ((i + 1) land mask)

let double t =
  let n = t.mask + 1 in
  if Arena.length t.slots <> t.sbase + n then
    invalid_arg "Mem_hash.add: another table sits above this one";
  let mask = (2 * n) - 1 in
  let fresh = Arena.grow t.slots (2 * n) in
  clear t.slots fresh (2 * n);
  for i = t.sbase to t.sbase + n - 1 do
    let g = Arena.get t.slots i in
    if g >= 0 then begin
      let k = Arena.get t.ents g in
      Arena.set t.slots (probe t fresh mask k (hash k land mask)) g
    end
  done;
  for i = 0 to (2 * n) - 1 do
    Arena.set t.slots (t.sbase + i) (Arena.get t.slots (fresh + i))
  done;
  Arena.shrink t.slots (t.sbase + (2 * n));
  t.mask <- mask

let add t ~(key : Tb_storage.Rid.t) ~payload_bytes v =
  if t.disposed then invalid_arg "Mem_hash.add: disposed";
  let k = (key :> int) in
  let c = probe t t.sbase t.mask k (hash k land t.mask) in
  let g = Arena.get t.slots c in
  let e = Arena.grow t.ents 2 in
  Arena.set t.ents e v;
  Arena.set t.ents (e + 1) (-1);
  let cost =
    if g >= 0 then begin
      Arena.set t.ents (Arena.get t.ents (g + 2) + 1) e;
      Arena.set t.ents (g + 2) e;
      entry_overhead + payload_bytes
    end
    else begin
      let g = Arena.grow t.ents 3 in
      Arena.set t.ents g k;
      Arena.set t.ents (g + 1) e;
      Arena.set t.ents (g + 2) e;
      Arena.set t.slots c g;
      t.groups <- t.groups + 1;
      if 2 * t.groups > t.mask + 1 then double t;
      group_overhead + entry_overhead + payload_bytes
    end
  in
  t.bytes <- t.bytes + cost;
  Tb_sim.Sim.claim_bytes t.sim cost;
  Tb_sim.Sim.charge_hash_insert t.sim

let find t ~(key : Tb_storage.Rid.t) =
  if t.disposed then invalid_arg "Mem_hash.find: disposed";
  Tb_sim.Sim.charge_hash_probe t.sim;
  let k = (key :> int) in
  let g = Arena.get t.slots (probe t t.sbase t.mask k (hash k land t.mask)) in
  if g >= 0 then Arena.get t.ents (g + 1) else -1

let next t e = Arena.get t.ents (e + 1)
let value t e = Arena.get t.ents e
let size_bytes t = t.bytes

let dispose t =
  if not t.disposed then begin
    Tb_sim.Sim.release_bytes t.sim t.bytes;
    t.disposed <- true;
    Arena.shrink t.ents t.ebase;
    Arena.shrink t.slots t.sbase
  end
