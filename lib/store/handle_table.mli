(** The table of live (and not-yet-destroyed) Handles.

    O2 keeps one representative per object in memory, refcounted, and delays
    destruction "as much as possible so as to avoid unnecessary
    free/allocate" (Section 4.4).  We model that with a bounded FIFO of
    zombies: unreferenced Handles stay resident (and can be resurrected for
    free) until the zombie pool overflows, at which point the oldest are
    actually freed — each alloc and each free charging the per-kind CPU cost
    that Figure 9 identifies.  The table's [kind] (fat vs compact) selects
    between the measured O2 behaviour and the slimmed-down representative
    the paper proposes in Section 4.4; the ablation bench flips it.

    The table owns the {!Handle.slab} its Handles live in.  On the host,
    its index from Rid to Handle and its zombie FIFO are flat int arrays:
    acquiring, releasing and destroying a Handle allocate nothing. *)

type t

(** [create sim ~kind ~zombie_limit] — [zombie_limit] is how many
    unreferenced Handles may linger before real destruction begins. *)
val create : Tb_sim.Sim.t -> kind:Tb_sim.Cost_model.handle_kind -> zombie_limit:int -> t

val kind : t -> Tb_sim.Cost_model.handle_kind

(** The slab holding this table's Handles. *)
val slab : t -> Handle.slab

(** [find_resident t rid] is [rid]'s resident Handle (live or zombie),
    found without charging or changing its refcount; {!Handle.none} when
    [rid] has none.  On a hit a lookup pins the Handle with {!acquire};
    on a miss it charges a new Handle with {!reserve}, loads the object's
    record into a {!slab} slot and registers it with {!install} — in that
    order, which is the charge order of a miss.  Update coherence uses it
    to peek. *)
val find_resident : t -> Tb_storage.Rid.t -> Handle.t

(** [acquire t h] pins the resident Handle [h] for almost nothing: its
    refcount goes up and a hit is charged. *)
val acquire : t -> Handle.t -> Handle.t

(** [reserve t] charges one Handle allocation and claims its simulated
    memory, {!Tb_sim.Cost_model.handle_bytes} of the table's kind. *)
val reserve : t -> unit

(** [install t h] makes [h], freshly allocated in {!slab} (refcount 1,
    memory already {!reserve}d), the resident Handle of its Rid, which
    must have none; returns [h]. *)
val install : t -> Handle.t -> Handle.t

(** [unreference t h] drops one reference; at zero the Handle becomes a
    zombie and may be destroyed later, which frees its slot. Raises
    [Invalid_argument] if the refcount is already zero or the slot is
    free. *)
val unreference : t -> Handle.t -> unit

(** [probe_start t rid] is the index cell a lookup of [rid] starts
    probing at; exposed so tests can build Rids that collide. *)
val probe_start : t -> Tb_storage.Rid.t -> int

(** Handles currently resident (live + zombies). *)
val resident_count : t -> int

(** Destroy every resident Handle, charging the frees. *)
val flush : t -> unit

(** Drop everything without charging (used when simulating a process
    restart, whose teardown the paper does not measure). *)
val discard : t -> unit
