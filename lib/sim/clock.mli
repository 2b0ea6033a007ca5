(** The simulated elapsed-time clock.

    All times are kept in milliseconds of simulated wall-clock time.  The
    paper concludes (Section 3.5) that elapsed time is "as good a measure as
    anything else" because it tracks I/Os and RPCs; here it is defined as
    exactly their weighted sum.

    [now_ms] is the elapsed timeline: under a fork/join {!scope} it swaps
    between shard-local lanes and joins to their max.  [work_ms] is the
    monotone sum of every advance ever charged — CPU-seconds rather than
    wall-seconds — and is what per-operator attribution reads, because it
    never jumps when the scope switches lanes.  Outside any scope both
    fields accumulate the identical float-add sequence, so they agree
    bit-for-bit. *)

(** Exposed representation so per-event hot paths (the B+-tree bulk append
    loop) can advance the clock with a plain float store instead of a
    cross-module call.  Inlined advances must mirror {!advance} exactly:
    [now_ms <- now_ms +. ms] and [work_ms <- work_ms +. ms] with a
    non-negative [ms].

    The record also holds {!Sim}'s two swap-fault accumulators: it is
    all floats, so OCaml stores it flat and a store into it boxes
    nothing, where a float field of [Sim.t]'s mixed record would box
    each update.  The clock itself never reads them; [Sim.reset] zeroes
    them, {!reset} does not. *)
type t = {
  mutable now_ms : float;
  mutable work_ms : float;
  mutable random_fault_accum : float;
      (** fractional random-access swap faults not yet charged *)
  mutable seq_fault_accum : float;
      (** fractional sequential swap faults (pages) not yet charged *)
}

val create : unit -> t

(** [advance t ms] moves the clock forward; negative amounts are rejected. *)
val advance : t -> float -> unit

(** Current simulated time in milliseconds since [create]/[reset]. *)
val now_ms : t -> float

(** Current simulated time in seconds — the unit of every paper table. *)
val now_s : t -> float

(** Total simulated work in milliseconds since [create]/[reset]: the sum of
    every advance across all lanes, never rewound by {!join}. *)
val work_ms : t -> float

val reset : t -> unit

(** {2 Fork/join scopes}

    Simulated parallelism for sharded execution.  [fork] snapshots the
    current time as the base of [lanes] shard-local timelines;
    [enter_lane] parks the active lane (if any) and installs lane [i]'s
    saved time as [now_ms]; [join] parks and sets [now_ms] to the maximum
    over lanes — elapsed = max, while counters and [work_ms] stay
    additive.  Scopes may be created sequentially (fork, run lanes, join,
    fork again) but must not be interleaved. *)

type scope

(** [fork t ~lanes] opens a scope of [lanes] timelines, each starting at
    the current [now_ms].  No lane is active until {!enter_lane}. *)
val fork : t -> lanes:int -> scope

(** [enter_lane sc i] saves the active lane's clock and resumes lane [i]. *)
val enter_lane : scope -> int -> unit

(** [join sc] parks the active lane and sets the clock to the latest lane.
    [work_ms] is untouched: joining discards overlap from the elapsed
    timeline only. *)
val join : scope -> unit

(** [lane_ms sc i] is lane [i]'s elapsed time since the fork point (the
    live clock value if [i] is active, its parked value otherwise). *)
val lane_ms : scope -> int -> float
