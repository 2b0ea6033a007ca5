(* A group holds its elements newest-first (O(1) insert) and memoizes the
   insertion-order view that probes return, so a group probed many times —
   every CHJ inner loop — is reversed once, not once per probe. *)
type 'a group = { mutable rev : 'a list; mutable fwd : 'a list option }

module H = Hashtbl.Make (Tb_storage.Rid)

type 'a t = {
  sim : Tb_sim.Sim.t;
  table : 'a group H.t;
  mutable bytes : int;
  mutable disposed : bool;
}

let entry_overhead = 16
let group_overhead = 40

let create sim =
  { sim; table = H.create 1024; bytes = 0; disposed = false }

let add t ~key ~payload_bytes v =
  if t.disposed then invalid_arg "Mem_hash.add: disposed";
  let cost =
    match H.find_opt t.table key with
    | Some group ->
        group.rev <- v :: group.rev;
        group.fwd <- None;
        entry_overhead + payload_bytes
    | None ->
        H.replace t.table key { rev = [ v ]; fwd = None };
        group_overhead + entry_overhead + payload_bytes
  in
  t.bytes <- t.bytes + cost;
  Tb_sim.Sim.claim_bytes t.sim cost;
  Tb_sim.Sim.charge_hash_insert t.sim

let find t ~key =
  if t.disposed then invalid_arg "Mem_hash.find: disposed";
  Tb_sim.Sim.charge_hash_probe t.sim;
  match H.find_opt t.table key with
  | Some group -> (
      match group.fwd with
      | Some l -> l
      | None ->
          let l = List.rev group.rev in
          group.fwd <- Some l;
          l)
  | None -> []

let size_bytes t = t.bytes

let dispose t =
  if not t.disposed then begin
    Tb_sim.Sim.release_bytes t.sim t.bytes;
    t.disposed <- true;
    H.reset t.table
  end
