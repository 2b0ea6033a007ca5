(** Memory-accounted in-memory hash tables for the pointer-based joins.

    The paper's Figure 10 is about exactly this structure: "An entry in the
    hash table = (providerid, provider information)" for PHJ, or
    "(provider, {patient1, patient2, ...})" for CHJ.  Every insert claims
    simulated memory; once the working set outgrows what the machine has
    left (128 MB minus caches and window manager), inserts and probes start
    thrashing — the swap the authors saw in the 1:3 / 90% configurations.

    A table maps a Rid key to the group of int values (payload offsets in
    the {!Tb_storage.Arena}) added under it, in insertion order.  It lives
    on the arena's int stacks: entries on {!Tb_storage.Arena.entries},
    the open-addressed key slots on {!Tb_storage.Arena.slots}, so tables
    nest like the runs that build them and a repeated build allocates
    nothing. *)

type t

(** Bytes charged per element beyond its payload. *)
val entry_overhead : int

(** Bytes charged when a key appears for the first time. *)
val group_overhead : int

(** [create sim arena] opens an empty table at the top of [arena]'s
    stacks.  It must be {!dispose}d before anything below it is. *)
val create : Tb_sim.Sim.t -> Tb_storage.Arena.t -> t

(** [add t ~key ~payload_bytes v] appends [v] to [key]'s group, claiming
    the memory and charging one hash insert.  Raises [Invalid_argument]
    after {!dispose}, or when the key slots must grow while another table
    sits above this one. *)
val add : t -> key:Tb_storage.Rid.t -> payload_bytes:int -> int -> unit

(** [find t ~key] is the first entry of [key]'s group, or [-1] when the
    key is absent, charging one probe.  {!next} walks the group in
    insertion order and {!value} reads an entry.  Raises
    [Invalid_argument] after {!dispose}. *)
val find : t -> key:Tb_storage.Rid.t -> int

(** The entry after [e] in its group, or [-1]. *)
val next : t -> int -> int

(** The value entry [e] holds. *)
val value : t -> int -> int

(** Simulated resident size. *)
val size_bytes : t -> int

(** Release the claimed memory and pop the table off the arena's stacks.
    Must be called when the join finishes; a second call does nothing. *)
val dispose : t -> unit
