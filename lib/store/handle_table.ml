module H = Hashtbl.Make (Tb_storage.Rid)

type t = {
  sim : Tb_sim.Sim.t;
  kind : Tb_sim.Cost_model.handle_kind;
  table : Handle.t H.t;
  zombies : Tb_storage.Rid.t Queue.t;
  zombie_limit : int;
}

let create sim ~kind ~zombie_limit =
  if zombie_limit < 0 then invalid_arg "Handle_table.create: zombie_limit";
  { sim; kind; table = H.create 4096; zombies = Queue.create (); zombie_limit }

let kind t = t.kind

let destroy t h =
  Tb_sim.Sim.charge_handle_free t.sim t.kind;
  Tb_sim.Sim.release_bytes t.sim h.Handle.mem_bytes;
  H.remove t.table h.Handle.rid

(* Pop zombies until the pool is back under its limit.  Queue entries can be
   stale (resurrected or re-queued rids); only genuinely unreferenced
   residents are destroyed. *)
let trim t =
  while Queue.length t.zombies > t.zombie_limit do
    let rid = Queue.pop t.zombies in
    match H.find t.table rid with
    | h when h.Handle.refcount = 0 -> destroy t h
    | _ -> ()
    | exception Not_found -> ()
  done

(* Lookups here allocate nothing: [H.find], not [H.find_opt].  A miss is
   told apart by [resident] first, because raising [Not_found] once per
   cold row costs more host time than a second lookup per hit. *)
let resident t rid = H.mem t.table rid

let acquire t rid =
  let h = H.find t.table rid in
  Tb_sim.Sim.charge_handle_hit t.sim;
  h.Handle.refcount <- h.Handle.refcount + 1;
  h

let reserve t =
  Tb_sim.Sim.charge_handle_alloc t.sim t.kind;
  let mem_bytes = Tb_sim.Cost_model.handle_bytes t.sim.Tb_sim.Sim.cost t.kind in
  Tb_sim.Sim.claim_bytes t.sim mem_bytes;
  mem_bytes

let install t h =
  H.replace t.table h.Handle.rid h;
  h

let unreference t h =
  if h.Handle.refcount <= 0 then
    invalid_arg "Handle_table.unreference: refcount already zero";
  h.Handle.refcount <- h.Handle.refcount - 1;
  if h.Handle.refcount = 0 then begin
    Queue.push h.Handle.rid t.zombies;
    trim t
  end

let find_resident t rid = H.find_opt t.table rid
let resident_count t = H.length t.table

let flush t =
  H.iter (fun _ h ->
      Tb_sim.Sim.charge_handle_free t.sim t.kind;
      Tb_sim.Sim.release_bytes t.sim h.Handle.mem_bytes) t.table;
  H.reset t.table;
  Queue.clear t.zombies

let discard t =
  H.iter
    (fun _ h -> Tb_sim.Sim.release_bytes t.sim h.Handle.mem_bytes)
    t.table;
  H.reset t.table;
  Queue.clear t.zombies
