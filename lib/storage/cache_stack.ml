type t = {
  sim : Tb_sim.Sim.t;
  disk : Disk.t;
  server : Buffer_pool.t;
  client : Buffer_pool.t;
  mutable fault : Fault.t option;
  mutable write_observer : (Page_id.t -> Page_layout.t -> unit) option;
  mutable persist_observer : (Page_id.t -> unit) option;
}

let create sim disk ~server_pages ~client_pages =
  {
    sim;
    disk;
    server = Buffer_pool.create ~capacity_pages:server_pages;
    client = Buffer_pool.create ~capacity_pages:client_pages;
    fault = None;
    write_observer = None;
    persist_observer = None;
  }

let client_capacity t = Buffer_pool.capacity t.client
let disk t = t.disk
let sim t = t.sim
let set_fault t f = t.fault <- f
let set_write_observer t obs = t.write_observer <- obs
let set_persist_observer t obs = t.persist_observer <- obs

(* Writing a page to disk: charge the I/O, copy the working bytes into the
   durable image (which clears the dirty bit).  The persist observer (the
   WAL) sees the image first, before the fault layer decides whether the
   machine survives the write; a crashing write is not charged (the charge
   models a completed transfer) and leaves the image untouched — or, torn,
   half-updated under the wrong checksum. *)
let write_to_disk t id page =
  if Page_layout.dirty page then begin
    (match t.persist_observer with None -> () | Some obs -> obs id);
    (match t.fault with
    | None -> ()
    | Some f -> (
        match Fault.on_write f with
        | Fault.Ok -> ()
        | Fault.Crash_lost -> raise Fault.Crash
        | Fault.Crash_torn ->
            Disk.persist_torn t.disk id page;
            raise Fault.Crash));
    Tb_sim.Sim.charge_disk_write t.sim;
    Disk.persist t.disk id page
  end

(* Install a page in the server pool; a dirty victim goes to disk. *)
let server_add t id page =
  if Buffer_pool.add t.server id page then
    write_to_disk t (Buffer_pool.victim_id t.server) (Buffer_pool.victim t.server)

(* Install a page in the client pool; a dirty victim is shipped back to the
   server (one RPC) and stays dirty there until the server evicts it. *)
let client_add t id page =
  if Buffer_pool.add t.client id page then begin
    let victim = Buffer_pool.victim t.client in
    if Page_layout.dirty victim then begin
      Tb_sim.Sim.charge_rpc t.sim ~pages:1;
      server_add t (Buffer_pool.victim_id t.client) victim
    end
  end

let fetch_from_server t id =
  match Buffer_pool.find t.server id with
  | page ->
      t.sim.Tb_sim.Sim.counters.Tb_sim.Counters.server_hits <-
        t.sim.Tb_sim.Sim.counters.Tb_sim.Counters.server_hits + 1;
      page
  | exception Not_found ->
      t.sim.Tb_sim.Sim.counters.Tb_sim.Counters.server_misses <-
        t.sim.Tb_sim.Sim.counters.Tb_sim.Counters.server_misses + 1;
      (* Transient read errors burn a read plus an exponentially backed-off
         settle each, then the retry succeeds (bounded by the fault layer's
         retry budget).  The jitter multiplier comes from the fault layer's
         seeded Rng, so the charge stream replays bit for bit. *)
      (match t.fault with
      | None -> ()
      | Some f ->
          let budget = Fault.max_read_retries f in
          let base = t.sim.Tb_sim.Sim.cost.Tb_sim.Cost_model.read_retry_backoff_ms in
          let rec attempt k scale =
            if k < budget && Fault.read_fails f then begin
              Tb_sim.Sim.charge_read_retry t.sim
                ~backoff_ms:(base *. scale *. Fault.backoff_jitter f);
              attempt (k + 1) (scale *. 2.0)
            end
          in
          attempt 0 1.0);
      Tb_sim.Sim.charge_disk_read t.sim;
      let page = Disk.load_page t.disk id in
      server_add t id page;
      page

let fetch t id =
  match Buffer_pool.find t.client id with
  | page ->
      Tb_sim.Sim.charge_client_hit t.sim;
      page
  | exception Not_found ->
      t.sim.Tb_sim.Sim.counters.Tb_sim.Counters.client_misses <-
        t.sim.Tb_sim.Sim.counters.Tb_sim.Counters.client_misses + 1;
      Tb_sim.Sim.charge_rpc t.sim ~pages:1;
      let page = fetch_from_server t id in
      client_add t id page;
      page

(* The only way to make a page writable.  The disk detaches the page
   first, so its image keeps the pre-write bytes; then the observer (the
   WAL) runs, before the caller can mutate: a first touch logs the page,
   and every touch refreshes the WAL's reference to the current working
   object.  Charge-free. *)
let note_write t id page =
  Disk.detach t.disk id page;
  Page_layout.set_dirty page true;
  match t.write_observer with None -> () | Some obs -> obs id page

let fetch_for_write t id =
  let page = fetch t id in
  note_write t id page;
  page

(* Charge-free, recency-free client-pool probe: lets a caller prove that a
   [fetch] would be a client hit without simulating anything (the
   B+-tree's bulk-build fast path). *)
let peek t id = Buffer_pool.peek t.client id

let flush t =
  (* Client-side dirty pages cost an RPC each on their way down. *)
  Buffer_pool.iter t.client (fun id page ->
      if Page_layout.dirty page then begin
        Tb_sim.Sim.charge_rpc t.sim ~pages:1;
        write_to_disk t id page
      end);
  Buffer_pool.iter t.server (fun id page -> write_to_disk t id page)

(* Drop both pools without flushing: the crash/abort path.  Dirty working
   pages are simply lost; the durable images stay whatever the last persists
   made them.  A dirty object no longer shares its image, so the disk's
   memo of it is void and the next load re-reads exactly those pages,
   taking the dead object's buffer back; clean ones are reused.  With no
   pool frame left to hold one, the pages of dead scratch files are
   released. *)
let drop t =
  Buffer_pool.clear t.client;
  Buffer_pool.clear t.server;
  Disk.release_dead t.disk

(* Cold restart: flush, then drop.  After the flush every working object is
   clean and shares its durable image, so every disk memo stays valid. *)
let clear t =
  flush t;
  drop t
