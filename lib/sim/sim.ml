type t = {
  cost : Cost_model.t;
  clock : Clock.t;
  counters : Counters.t;
  rng : Rng.t;
  mutable working_bytes : int;
  mutable peak_working_bytes : int;
  mutable random_fault_accum : float;
  mutable seq_fault_accum : float;
}

let create ?(seed = 42) cost =
  {
    cost;
    clock = Clock.create ();
    counters = Counters.create ();
    rng = Rng.create seed;
    working_bytes = 0;
    peak_working_bytes = 0;
    random_fault_accum = 0.0;
    seq_fault_accum = 0.0;
  }

let elapsed_s t = Clock.now_s t.clock

let reset t =
  Clock.reset t.clock;
  Counters.reset t.counters;
  t.peak_working_bytes <- t.working_bytes;
  t.random_fault_accum <- 0.0;
  t.seq_fault_accum <- 0.0

let claim_bytes t n =
  if n < 0 then invalid_arg "Sim.claim_bytes: negative";
  t.working_bytes <- t.working_bytes + n;
  if t.working_bytes > t.peak_working_bytes then
    t.peak_working_bytes <- t.working_bytes

let release_bytes t n =
  if n < 0 then invalid_arg "Sim.release_bytes: negative";
  t.working_bytes <- max 0 (t.working_bytes - n)

let working_bytes t = t.working_bytes

let excess_ratio t =
  let avail = Cost_model.available_bytes t.cost in
  if avail <= 0 then if t.working_bytes > 0 then 1.0 else 0.0
  else
    let excess = t.working_bytes - avail in
    if excess <= 0 then 0.0 else float_of_int excess /. float_of_int avail

let[@inline] us t micros = Clock.advance t.clock (micros /. 1000.0)

(* Deterministic swap accounting: accumulate fractional faults and charge
   whole ones, so results do not depend on PRNG draws. *)
let swap_random t =
  let p = Float.min 1.0 (excess_ratio t *. t.cost.Cost_model.thrash_factor) in
  if p > 0.0 then begin
    t.random_fault_accum <- t.random_fault_accum +. p;
    if t.random_fault_accum >= 1.0 then begin
      let faults = int_of_float t.random_fault_accum in
      t.random_fault_accum <- t.random_fault_accum -. float_of_int faults;
      t.counters.Counters.swap_faults <-
        t.counters.Counters.swap_faults + faults;
      Clock.advance t.clock (float_of_int faults *. t.cost.Cost_model.swap_fault_ms)
    end
  end

let swap_sequential t bytes =
  if excess_ratio t > 0.0 then begin
    let pages = float_of_int bytes /. float_of_int t.cost.Cost_model.page_size in
    t.seq_fault_accum <- t.seq_fault_accum +. pages;
    if t.seq_fault_accum >= 1.0 then begin
      let faults = int_of_float t.seq_fault_accum in
      t.seq_fault_accum <- t.seq_fault_accum -. float_of_int faults;
      t.counters.Counters.swap_faults <-
        t.counters.Counters.swap_faults + faults;
      Clock.advance t.clock (float_of_int faults *. t.cost.Cost_model.swap_fault_ms)
    end
  end

let charge_disk_read t =
  t.counters.Counters.disk_reads <- t.counters.Counters.disk_reads + 1;
  Clock.advance t.clock t.cost.Cost_model.page_read_ms

let charge_disk_write t =
  t.counters.Counters.disk_writes <- t.counters.Counters.disk_writes + 1;
  Clock.advance t.clock t.cost.Cost_model.page_write_ms

let charge_rpc t ~pages =
  t.counters.Counters.rpc_count <- t.counters.Counters.rpc_count + 1;
  t.counters.Counters.rpc_pages <- t.counters.Counters.rpc_pages + pages;
  Clock.advance t.clock
    (t.cost.Cost_model.rpc_fixed_ms
    +. (float_of_int pages *. t.cost.Cost_model.rpc_page_ms))

let charge_client_hit t =
  t.counters.Counters.client_hits <- t.counters.Counters.client_hits + 1;
  Clock.advance t.clock t.cost.Cost_model.client_hit_ms

let charge_handle_alloc t kind =
  t.counters.Counters.handle_allocs <- t.counters.Counters.handle_allocs + 1;
  us t (Cost_model.handle_alloc_us t.cost kind)

let charge_handle_free t kind =
  t.counters.Counters.handle_frees <- t.counters.Counters.handle_frees + 1;
  us t (Cost_model.handle_free_us t.cost kind)

let charge_handle_hit t =
  t.counters.Counters.handle_hits <- t.counters.Counters.handle_hits + 1

let charge_get_att t =
  t.counters.Counters.get_atts <- t.counters.Counters.get_atts + 1;
  us t t.cost.Cost_model.get_att_us

let charge_compare t n =
  if n > 0 then begin
    t.counters.Counters.comparisons <- t.counters.Counters.comparisons + n;
    us t (float_of_int n *. t.cost.Cost_model.compare_us)
  end

let charge_hash_insert t =
  t.counters.Counters.hash_inserts <- t.counters.Counters.hash_inserts + 1;
  us t t.cost.Cost_model.hash_insert_us;
  swap_random t

let charge_hash_probe t =
  t.counters.Counters.hash_probes <- t.counters.Counters.hash_probes + 1;
  us t t.cost.Cost_model.hash_probe_us;
  swap_random t

let charge_sort t n =
  if n > 1 then begin
    let cmps = int_of_float (float_of_int n *. (log (float_of_int n) /. log 2.0)) in
    t.counters.Counters.sort_comparisons <-
      t.counters.Counters.sort_comparisons + cmps;
    us t (float_of_int cmps *. t.cost.Cost_model.sort_cmp_us)
  end

(* Appending a log record is a memory write into the current log page; the
   I/O it implies is charged separately, one page write per filled log page
   (see [Tb_store.Wal]).  Counter only, no clock. *)
let charge_wal_append t =
  t.counters.Counters.wal_appends <- t.counters.Counters.wal_appends + 1

let charge_redo_page t =
  t.counters.Counters.redo_pages <- t.counters.Counters.redo_pages + 1;
  charge_disk_write t

let charge_undo_page t =
  t.counters.Counters.undo_pages <- t.counters.Counters.undo_pages + 1;
  charge_disk_write t

(* A transient read error: the failed read is paid for, plus the settle time
   before the retry is issued.  The backoff is supplied by the caller so the
   jitter draw stays in [Fault]'s seeded Rng (never wall clock). *)
let charge_read_retry t ~backoff_ms =
  t.counters.Counters.read_retries <- t.counters.Counters.read_retries + 1;
  charge_disk_read t;
  Clock.advance t.clock backoff_ms

(* A shard RPC declared lost: the full timeout window elapses before the
   caller learns anything.  Detection cost of every injected transient,
   partition or crash event. *)
let charge_rpc_timeout t =
  t.counters.Counters.rpc_timeouts <- t.counters.Counters.rpc_timeouts + 1;
  Clock.advance t.clock t.cost.Cost_model.rpc_timeout_ms

(* Re-issuing a timed-out shard RPC after an exponential-backoff wait.  Only
   the wait is charged here — the re-issued RPC itself goes through
   [charge_rpc] like any other, so traffic counters stay honest. *)
let charge_rpc_retry t ~backoff_ms =
  t.counters.Counters.rpc_retries <- t.counters.Counters.rpc_retries + 1;
  Clock.advance t.clock backoff_ms

(* Promoting a replica to primary: election plus a checksum walk over the
   follower's durable pages. *)
let charge_failover t ~pages =
  t.counters.Counters.failovers <- t.counters.Counters.failovers + 1;
  Clock.advance t.clock
    (t.cost.Cost_model.promote_fixed_ms
    +. (float_of_int pages *. t.cost.Cost_model.promote_page_ms))

let charge_result_append t ~bytes ~standard =
  t.counters.Counters.result_appends <- t.counters.Counters.result_appends + 1;
  us t
    (if standard then t.cost.Cost_model.result_append_standard_us
     else t.cost.Cost_model.result_append_load_us);
  claim_bytes t bytes;
  swap_sequential t bytes
