(* Horizontal partitioning: S databases, one simulated machine.

   Each shard is a full [Database.t] — its own heap files, buffer pools,
   WAL and indexes — sharing one [Sim.t], so charges from every shard land
   in the same global counters and the same clock.  Simulated parallelism
   is the executor's business (it wraps shard work in [Clock.fork]/[join]
   scopes); the map itself only owns placement: a deterministic salted
   hash from partition-key values to shard numbers.

   The salt comes from a private [Rng] seeded from the generator seed —
   private, because drawing it from the shared simulation RNG would
   perturb the generated data and break the S=1 ⇔ unsharded bit-identity
   the parity suite pins.

   Since PR 8 each shard can carry R-1 follower replicas: byte-identical
   twins built by applying the primary's statement stream to databases on
   distinct "nodes" (node of replica r of shard s is (s + r) mod S).  At
   R=1 no follower databases exist and nothing below is reachable, so the
   PR 7 charge stream is untouched.  [promote] turns the next follower
   into the primary after a WAL catch-up and checksum walk
   ([Database.crash_and_recover] — it refuses if a torn page survives),
   charging the failover to the shared clock; [repair] undoes every
   promotion so a chaos sweep can reuse one build across kill points. *)

module Fault = Tb_storage.Fault

type t = {
  sim : Tb_sim.Sim.t;
  salt : int;
  key_attr : string;
  replicas : int;
  primaries : Database.t array;  (* current primary per shard *)
  followers : Database.t list array;  (* promotion order, head next *)
  original_primaries : Database.t array;
  original_followers : Database.t list array;
  faults : Fault.t option array;  (* active schedule per shard *)
  mutable registry : Fault.registry option;
}

(* Exchange tags a shard's file ids as [shard * disk_file_limit + file],
   and a tagged id must still fit a Rid. *)
let max_shards =
  (Tb_storage.Rid.max_file + 1) / Tb_storage.Rid.disk_file_limit

let create sim ~schema ~shards ?(replicas = 1) ~server_pages ~client_pages
    ?handle_kind ?zombie_limit ?txn_mode ~key_attr ~seed () =
  if shards <= 0 then invalid_arg "Shard_map.create: shards must be positive";
  if shards > max_shards then
    invalid_arg
      (Printf.sprintf
         "Shard_map.create: at most %d shards (exchange-tagged file ids must \
          fit a Rid)"
         max_shards);
  if replicas < 1 then invalid_arg "Shard_map.create: replicas must be >= 1";
  if replicas > shards then
    invalid_arg
      "Shard_map.create: replicas cannot exceed shards (one node each)";
  (* One machine's worth of cache, divided: sharding partitions the buffer
     pool, it does not grow it. *)
  let per_shard pages = max 2 (pages / shards) in
  let mk () =
    Database.create sim ~schema ~server_pages:(per_shard server_pages)
      ~client_pages:(per_shard client_pages) ?handle_kind ?zombie_limit
      ?txn_mode ()
  in
  let dbs = Array.init shards (fun _ -> mk ()) in
  let followers =
    Array.init shards (fun _ -> List.init (replicas - 1) (fun _ -> mk ()))
  in
  let salt = Tb_sim.Rng.int (Tb_sim.Rng.create seed) 0x4000_0000 in
  {
    sim;
    salt;
    key_attr;
    replicas;
    primaries = dbs;
    followers = Array.copy followers;
    original_primaries = Array.copy dbs;
    original_followers = followers;
    faults = Array.make shards None;
    registry = None;
  }

let count t = Array.length t.primaries
let replicas t = t.replicas

let shard t i =
  if i < 0 || i >= Array.length t.primaries then
    invalid_arg "Shard_map.shard: index out of range";
  t.primaries.(i)

(* Primary first, then the followers still awaiting promotion: the order
   the build's statement stream is applied in. *)
let group t i = shard t i :: t.followers.(i)

let live_replicas t i = 1 + List.length t.followers.(i)

(* The "node" a replica lives on: primaries spread one per node, follower
   r of shard s on the node r steps around the ring — distinct from its
   primary's by the R <= S check in [create]. *)
let node_of t ~shard ~replica = (shard + replica) mod count t

let sim t = t.sim
let key_attr t = t.key_attr
let salt t = t.salt

(* Fibonacci-style multiplicative mix of the salted key: cheap, stateless,
   and spreads consecutive provider ids evenly across shards. *)
let shard_of_key t key =
  if Array.length t.primaries = 1 then 0
  else
    let h = (key lxor t.salt) * 0x2545F491 land max_int in
    h mod Array.length t.primaries

let iter t f = Array.iteri f t.primaries

let iter_group t f =
  Array.iteri (fun s _ -> f s (group t s)) t.primaries

let cold_restart t =
  Array.iteri
    (fun s p ->
      Database.cold_restart p;
      List.iter Database.cold_restart t.followers.(s))
    t.primaries

let commit t =
  Array.iteri
    (fun s p ->
      Database.commit p;
      List.iter Database.commit t.followers.(s))
    t.primaries

(* --- fault wiring --- *)

let set_fault_registry t reg =
  t.registry <- reg;
  match reg with
  | None ->
      Array.iteri
        (fun s db ->
          Database.set_fault db None;
          t.faults.(s) <- None)
        t.primaries
  | Some r ->
      if Fault.registry_size r <> count t then
        invalid_arg "Shard_map.set_fault_registry: registry size mismatch";
      Array.iteri
        (fun s db ->
          let f = Fault.shard_fault r s in
          t.faults.(s) <- Some f;
          Database.set_fault db (Some f))
        t.primaries

let fault t s =
  if s < 0 || s >= count t then invalid_arg "Shard_map.fault";
  t.faults.(s)

(* --- failover --- *)

(* Promote the next follower of a dead shard.  Catch-up and verification
   ride the machinery recovery already has: [crash_and_recover] drops the
   follower's volatile state, walks every durable page's checksum, replays
   or unwinds the WAL tail, and refuses (raises [Failure]) if a torn page
   survives — in which case the replica is consumed but not installed, and
   the caller can try the next one.  The promotion charge (election plus
   the checksum walk, one unit per durable page) lands on the shared
   clock, inside whatever lane scope the caller holds. *)
let promote t ~shard:s =
  if s < 0 || s >= count t then invalid_arg "Shard_map.promote";
  match t.followers.(s) with
  | [] -> Error "no replica left"
  | f :: rest -> (
      t.followers.(s) <- rest;
      match Database.crash_and_recover f with
      | exception Failure msg -> Error msg
      | (_ : Database.recovery) ->
          Tb_sim.Sim.charge_failover t.sim ~pages:(Database.durable_pages f);
          t.primaries.(s) <- f;
          (* The replica starts with a clean slate: the dead primary's
             armed schedule must not follow it. *)
          t.faults.(s) <- None;
          Ok f)

(* Undo every promotion and re-arm per-shard faults from the registry:
   the chaos sweep's "fix the cluster" step between kill points. *)
let repair t =
  Array.iteri
    (fun s p ->
      t.primaries.(s) <- p;
      t.followers.(s) <- t.original_followers.(s))
    t.original_primaries;
  match t.registry with
  | None -> Array.fill t.faults 0 (count t) None
  | Some r ->
      Array.iteri
        (fun s db ->
          let f = Fault.shard_fault r s in
          Fault.revive f;
          t.faults.(s) <- Some f;
          Database.set_fault db (Some f))
        t.primaries
