type t = {
  mutable now_ms : float;
  mutable work_ms : float;
  mutable random_fault_accum : float;
  mutable seq_fault_accum : float;
}

let create () =
  { now_ms = 0.0; work_ms = 0.0; random_fault_accum = 0.0; seq_fault_accum = 0.0 }

(* Inlined into every charge site ([Sim.us] and friends) so the duration
   stays an unboxed float all the way into the flat clock record.  The
   float operations, and their order, are those of the call. *)
let[@inline] advance t ms =
  if ms < 0.0 then invalid_arg "Clock.advance: negative duration";
  t.now_ms <- t.now_ms +. ms;
  t.work_ms <- t.work_ms +. ms

let now_ms t = t.now_ms
let now_s t = t.now_ms /. 1000.0
let work_ms t = t.work_ms

let reset t =
  t.now_ms <- 0.0;
  t.work_ms <- 0.0

(* Fork/join scopes: simulated parallelism over shard lanes.

   A scope remembers the fork point and one saved timeline per lane.
   [enter_lane] swaps [now_ms] to the lane's saved time, so every charge
   site in the engine — including the hand-inlined stores in the B+-tree
   bulk loader — transparently advances the active lane.  [join] parks
   the active lane and sets [now_ms] to the latest lane: elapsed time is
   the max over lanes, while [work_ms] (never rewound) keeps accumulating
   the sum of all advances, which is what per-operator attribution and
   additive counters reconcile against. *)

type scope = {
  sc_clock : t;
  sc_base : float;
  sc_lane : float array;
  mutable sc_active : int;
}

let fork t ~lanes =
  if lanes <= 0 then invalid_arg "Clock.fork: lanes must be positive";
  {
    sc_clock = t;
    sc_base = t.now_ms;
    sc_lane = Array.make lanes t.now_ms;
    sc_active = -1;
  }

let park sc =
  if sc.sc_active >= 0 then begin
    sc.sc_lane.(sc.sc_active) <- sc.sc_clock.now_ms;
    sc.sc_active <- -1
  end

let enter_lane sc i =
  if i < 0 || i >= Array.length sc.sc_lane then
    invalid_arg "Clock.enter_lane: lane out of range";
  park sc;
  sc.sc_active <- i;
  sc.sc_clock.now_ms <- sc.sc_lane.(i)

let join sc =
  park sc;
  sc.sc_clock.now_ms <- Array.fold_left Float.max sc.sc_base sc.sc_lane

let lane_ms sc i =
  if i < 0 || i >= Array.length sc.sc_lane then
    invalid_arg "Clock.lane_ms: lane out of range";
  (if i = sc.sc_active then sc.sc_clock.now_ms else sc.sc_lane.(i))
  -. sc.sc_base
