(* Exchange/Gather charge kernels: the shipping side of sharded execution.

   This module is the only place the repartition and gather traffic is
   charged (treelint R1 lists it next to Operators); the interpreter in
   {!Exec} drives the loops but never touches the cost model itself.

   A [t] is one S-way routed buffer: rows sent to a destination lane
   accumulate there, claim simulated memory, and pay one client/server
   round trip per filled page — rows move between shards by RPC, exactly
   like the page traffic of Figure 5, batched a page at a time.  A source
   that finishes its stream ships its partial pages ([flush_source]), so
   an S-shard exchange pays at most S partial-page RPCs per source.

   Buffers are per (source, destination) pair so that one source's stream
   can be dropped and re-routed from a replica ([drop_source]) without
   touching what the other sources already shipped.  A row is a (key,
   payload offset) pair, kept in flat per-pair arrays: the payload itself
   stays where its harvest stowed it, on the arena the shards share.  The
   RPCs themselves are fallible: when a destination shard has an armed fault
   schedule, each page RPC first rides out its drawn timeouts — a full
   timeout window plus an exponentially backed-off, jittered re-issue per
   loss, every wait charged to the simulated clock — before the page goes
   through.  A quiescent fault layer costs nothing and draws nothing, so
   fault-free runs stay bit-identical. *)

module Sim = Tb_sim.Sim
module Rid = Tb_storage.Rid
module Fault = Tb_storage.Fault

type t = {
  sim : Sim.t;
  page : int;
  fault_of : int -> Fault.t option;
  (* keys.(src).(dest) and offs.(src).(dest): the pair's rows in arrival
     order, the first count.(src).(dest) cells of each *)
  keys : Rid.t array array array;
  offs : int array array array;
  count : int array array;
  pending : int array array;  (* buffered-but-unbilled bytes per (src,dest) *)
  claimed : int array array;  (* simulated bytes held per (src,dest) *)
}

let no_fault (_ : int) : Fault.t option = None

let create ?(fault_of = no_fault) sim ~shards =
  if shards <= 0 then invalid_arg "Exchange.create: shards must be positive";
  {
    sim;
    page = sim.Sim.cost.Tb_sim.Cost_model.page_size;
    fault_of;
    keys = Array.init shards (fun _ -> Array.make shards [||]);
    offs = Array.init shards (fun _ -> Array.make shards [||]);
    count = Array.init shards (fun _ -> Array.make shards 0);
    pending = Array.init shards (fun _ -> Array.make shards 0);
    claimed = Array.init shards (fun _ -> Array.make shards 0);
  }

(* Tag a key Rid with its source shard: per-shard disks reuse file ids, so
   two different objects on two shards can carry the same raw Rid.  The
   join sides are colocated (a patient's inverse reference names a
   provider on its own shard), so matching pairs always carry the same
   tag and still meet on the same destination lane.  A nil key (a
   dangling inverse reference) matches nothing and stays nil.
   Shard_map.create bounds the shard count so that every tagged file id
   fits in a Rid. *)
let retag ~shard rid =
  if Rid.is_nil rid then rid
  else
    Rid.make
      ~file:((shard * Rid.disk_file_limit) + Rid.file rid)
      ~page:(Rid.page rid) ~slot:(Rid.slot rid)

let dest_of t key = Rid.hash key mod Array.length t.count

(* Ride out the drawn RPC losses on the link to a faulted shard: each loss
   burns the full timeout window, then an exponentially backed-off wait
   (base * 2^k, jittered from the fault's seeded Rng) before the re-issue.
   The successful RPC itself is charged by the caller. *)
let ride_out_losses sim f =
  let budget = Fault.max_rpc_retries f in
  let base = sim.Sim.cost.Tb_sim.Cost_model.rpc_retry_base_ms in
  let rec attempt k scale =
    if k < budget && Fault.rpc_fails f then begin
      Sim.charge_rpc_timeout sim;
      Sim.charge_rpc_retry sim
        ~backoff_ms:(base *. scale *. Fault.backoff_jitter f);
      attempt (k + 1) (scale *. 2.0)
    end
  in
  attempt 0 1.0

let charge_page_rpc t ~dest =
  (match t.fault_of dest with
  | None -> ()
  | Some f -> ride_out_losses t.sim f);
  Sim.charge_rpc t.sim ~pages:1

(* Double a pair's arrays when full. *)
let make_room t ~src ~dest n =
  if n = Array.length t.keys.(src).(dest) then begin
    let cap = Int.max 64 (2 * n) in
    let keys = Array.make cap Rid.nil and offs = Array.make cap 0 in
    Array.blit t.keys.(src).(dest) 0 keys 0 n;
    Array.blit t.offs.(src).(dest) 0 offs 0 n;
    t.keys.(src).(dest) <- keys;
    t.offs.(src).(dest) <- offs
  end

let send t ~src ~dest ~bytes ~key off =
  if bytes < 0 then invalid_arg "Exchange.send: negative bytes";
  let n = t.count.(src).(dest) in
  make_room t ~src ~dest n;
  t.keys.(src).(dest).(n) <- key;
  t.offs.(src).(dest).(n) <- off;
  t.count.(src).(dest) <- n + 1;
  Sim.claim_bytes t.sim bytes;
  t.claimed.(src).(dest) <- t.claimed.(src).(dest) + bytes;
  t.pending.(src).(dest) <- t.pending.(src).(dest) + bytes;
  while t.pending.(src).(dest) >= t.page do
    charge_page_rpc t ~dest;
    t.pending.(src).(dest) <- t.pending.(src).(dest) - t.page
  done

let flush_source t ~src =
  Array.iteri
    (fun d pending ->
      if pending > 0 then begin
        charge_page_rpc t ~dest:d;
        t.pending.(src).(d) <- 0
      end)
    t.pending.(src)

(* Arrival order: sources are driven in ascending shard order inside the
   fork scope, so concatenating per-source streams in that order is the
   order rows actually reached the lane. *)
let iter t ~dest f =
  for src = 0 to Array.length t.count - 1 do
    let keys = t.keys.(src).(dest) and offs = t.offs.(src).(dest) in
    for i = 0 to t.count.(src).(dest) - 1 do
      f keys.(i) offs.(i)
    done
  done

let drop_source t ~src =
  Array.iteri
    (fun d bytes ->
      Sim.release_bytes t.sim bytes;
      t.claimed.(src).(d) <- 0;
      t.pending.(src).(d) <- 0;
      t.count.(src).(d) <- 0)
    t.claimed.(src)

let release_dest t ~dest =
  for src = 0 to Array.length t.count - 1 do
    Sim.release_bytes t.sim t.claimed.(src).(dest);
    t.claimed.(src).(dest) <- 0;
    t.count.(src).(dest) <- 0
  done

let dispose t =
  for d = 0 to Array.length t.count - 1 do
    release_dest t ~dest:d
  done

(* --- failure kernels --- *)

(* One exchange boundary on a shard's lane: tick the shard's fault
   schedule.  A partition rides out its rounds (timeout + backed-off
   re-probe per round, all charged); a scheduled crash escapes as
   [Fault.Shard_down] for the executor to turn into a failover.  With no
   armed fault this is free — no draws, no charges. *)
let boundary sim fault_opt =
  match fault_opt with
  | None -> ()
  | Some f -> (
      match Fault.on_boundary f with
      | Fault.B_ok -> ()
      | Fault.B_partitioned rounds ->
          let base = sim.Sim.cost.Tb_sim.Cost_model.rpc_retry_base_ms in
          let scale = ref 1.0 in
          for _ = 1 to rounds do
            Sim.charge_rpc_timeout sim;
            Sim.charge_rpc_retry sim
              ~backoff_ms:(base *. !scale *. Fault.backoff_jitter f);
            scale := !scale *. 2.0
          done)

(* The coordinator learning a lane is dead: one full timeout window.  The
   promotion itself is charged by [Shard_map.promote]. *)
let detect_failure sim = Sim.charge_rpc_timeout sim

(* --- gather kernels --- *)

(* Ship one shard's partial result to the coordinator: one RPC carrying
   the result's pages (an empty or aggregate-only partial still pays the
   fixed round-trip cost). *)
let ship_partial sim ~bytes =
  if bytes < 0 then invalid_arg "Exchange.ship_partial: negative bytes";
  let page = sim.Sim.cost.Tb_sim.Cost_model.page_size in
  Sim.charge_rpc sim ~pages:((bytes + page - 1) / page)

let log2ceil n =
  let rec go acc pow = if pow >= n then acc else go (acc + 1) (pow * 2) in
  go 0 1

(* An order-preserving gather runs an S-way tournament merge on the sort
   key: one comparison per row per tree level. *)
let merge_ordered sim ~rows ~streams =
  if streams > 1 && rows > 0 then
    Sim.charge_compare sim (rows * log2ceil streams)
