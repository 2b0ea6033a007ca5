(** Memory-accounted in-memory hash tables for the pointer-based joins.

    The paper's Figure 10 is about exactly this structure: "An entry in the
    hash table = (providerid, provider information)" for PHJ, or
    "(provider, {patient1, patient2, ...})" for CHJ.  Every insert claims
    simulated memory; once the working set outgrows what the machine has
    left (128 MB minus caches and window manager), inserts and probes start
    thrashing — the swap the authors saw in the 1:3 / 90% configurations. *)

type 'a t

(** Bytes charged per element beyond its payload. *)
val entry_overhead : int

(** Bytes charged when a key appears for the first time. *)
val group_overhead : int

val create : Tb_sim.Sim.t -> 'a t

(** [add t ~key ~payload_bytes v] appends [v] to [key]'s group, charging one
    hash insert and claiming the memory. *)
val add : 'a t -> key:Tb_storage.Rid.t -> payload_bytes:int -> 'a -> unit

(** [find t ~key] is [key]'s group (insertion order), charging one probe;
    empty when absent.  The insertion-order view is memoized per group, so
    repeated probes of the same key do not re-reverse it.
    Raises [Invalid_argument] after {!dispose}, as {!add} does. *)
val find : 'a t -> key:Tb_storage.Rid.t -> 'a list

(** Simulated resident size. *)
val size_bytes : 'a t -> int

(** Release the claimed memory. Must be called when the join finishes. *)
val dispose : 'a t -> unit
