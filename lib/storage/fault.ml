exception Crash
exception Shard_down of int

type write_outcome = Ok | Crash_lost | Crash_torn
type boundary_outcome = B_ok | B_partitioned of int

type t = {
  rng : Tb_sim.Rng.t;
  shard : int;
  mutable writes_until_crash : int; (* < 0: disarmed *)
  mutable torn : bool;
  mutable read_fail_permille : int;
  mutable max_read_retries : int;
  mutable rpc_fail_permille : int;
  mutable max_rpc_retries : int;
  mutable boundaries_until_crash : int; (* < 0: disarmed *)
  mutable partition_at_boundary : int; (* < 0: disarmed *)
  mutable partition_rounds : int;
  mutable writes_seen : int;
  mutable reads_seen : int;
  mutable boundaries_seen : int;
  mutable crashed : bool;
  mutable down : bool;
}

let make ~seed ~shard =
  {
    rng = Tb_sim.Rng.create seed;
    shard;
    writes_until_crash = -1;
    torn = false;
    read_fail_permille = 0;
    max_read_retries = 0;
    rpc_fail_permille = 0;
    max_rpc_retries = 0;
    boundaries_until_crash = -1;
    partition_at_boundary = -1;
    partition_rounds = 0;
    writes_seen = 0;
    reads_seen = 0;
    boundaries_seen = 0;
    crashed = false;
    down = false;
  }

let create ~seed = make ~seed ~shard:0

let schedule_crash t ~at_write ~torn =
  if at_write <= 0 then invalid_arg "Fault.schedule_crash: at_write";
  t.writes_until_crash <- at_write;
  t.torn <- torn;
  t.crashed <- false

let set_read_faults t ~permille ~max_retries =
  if permille < 0 || permille > 1000 then
    invalid_arg "Fault.set_read_faults: permille";
  if max_retries < 0 then invalid_arg "Fault.set_read_faults: max_retries";
  t.read_fail_permille <- permille;
  t.max_read_retries <- max_retries

let set_rpc_faults t ~permille ~max_retries =
  if permille < 0 || permille > 1000 then
    invalid_arg "Fault.set_rpc_faults: permille";
  if max_retries < 0 then invalid_arg "Fault.set_rpc_faults: max_retries";
  t.rpc_fail_permille <- permille;
  t.max_rpc_retries <- max_retries

let schedule_shard_crash t ~at_boundary =
  if at_boundary <= 0 then invalid_arg "Fault.schedule_shard_crash: at_boundary";
  t.boundaries_until_crash <- at_boundary;
  t.down <- false

let schedule_partition t ~at_boundary ~rounds =
  if at_boundary <= 0 then invalid_arg "Fault.schedule_partition: at_boundary";
  if rounds <= 0 then invalid_arg "Fault.schedule_partition: rounds";
  t.partition_at_boundary <- at_boundary;
  t.partition_rounds <- rounds

(* Every write that would reach the durable medium — data-page persists and
   WAL log-page writes alike — ticks the same countdown, so a crash point is
   one global write ordinal, reproducible across runs. *)
let on_write t =
  t.writes_seen <- t.writes_seen + 1;
  if t.writes_until_crash < 0 then Ok
  else begin
    t.writes_until_crash <- t.writes_until_crash - 1;
    if t.writes_until_crash > 0 then Ok
    else begin
      t.writes_until_crash <- -1;
      t.crashed <- true;
      if t.torn then Crash_torn else Crash_lost
    end
  end

let read_fails t =
  t.reads_seen <- t.reads_seen + 1;
  t.read_fail_permille > 0
  && Tb_sim.Rng.int t.rng 1000 < t.read_fail_permille

(* Every exchange boundary the shard's lane reaches ticks the same ordinal
   counter, so a shard-kill point is one global boundary ordinal — the
   sharded twin of the write-ordinal crash sweep above.  A crash takes the
   shard down for good (until [revive]); a partition merely delays it. *)
let on_boundary t =
  if t.down then raise (Shard_down t.shard);
  t.boundaries_seen <- t.boundaries_seen + 1;
  if t.boundaries_until_crash >= 0 then begin
    t.boundaries_until_crash <- t.boundaries_until_crash - 1;
    if t.boundaries_until_crash <= 0 then begin
      t.boundaries_until_crash <- -1;
      t.down <- true;
      raise (Shard_down t.shard)
    end
  end;
  if t.partition_at_boundary >= 0 then begin
    t.partition_at_boundary <- t.partition_at_boundary - 1;
    if t.partition_at_boundary <= 0 then begin
      t.partition_at_boundary <- -1;
      B_partitioned t.partition_rounds
    end
    else B_ok
  end
  else B_ok

let rpc_fails t =
  t.rpc_fail_permille > 0
  && Tb_sim.Rng.int t.rng 1000 < t.rpc_fail_permille

(* One seeded draw — a multiplier in [0.5, 1.5) applied to whatever backoff
   base the caller computed.  Never wall clock. *)
let backoff_jitter t = 0.5 +. Tb_sim.Rng.float t.rng 1.0

let revive t =
  t.down <- false;
  t.boundaries_until_crash <- -1;
  t.partition_at_boundary <- -1;
  t.boundaries_seen <- 0

let max_read_retries t = t.max_read_retries
let max_rpc_retries t = t.max_rpc_retries
let writes_seen t = t.writes_seen
let boundaries_seen t = t.boundaries_seen

(* --- shard-addressable registry --- *)

type registry = { faults : t array }

let registry ~seed ~shards =
  if shards <= 0 then invalid_arg "Fault.registry: shards";
  (* Derive per-shard seeds from one master seed through a dedicated Rng so
     schedules are independent yet fully determined by [seed]. *)
  let master = Tb_sim.Rng.create seed in
  {
    faults =
      Array.init shards (fun shard ->
          make ~seed:(Tb_sim.Rng.int master 0x3FFF_FFFF) ~shard);
  }

let shard_fault r s =
  if s < 0 || s >= Array.length r.faults then invalid_arg "Fault.shard_fault";
  r.faults.(s)

let registry_size r = Array.length r.faults
let iter_registry r f = Array.iter f r.faults
