(** The table of live (and not-yet-destroyed) Handles.

    O2 keeps one representative per object in memory, refcounted, and delays
    destruction "as much as possible so as to avoid unnecessary
    free/allocate" (Section 4.4).  We model that with a bounded FIFO of
    zombies: unreferenced Handles stay resident (and can be resurrected for
    free) until the zombie pool overflows, at which point the oldest are
    actually freed — each alloc and each free charging the per-kind CPU cost
    that Figure 9 identifies. *)

type t

(** [create sim ~kind ~zombie_limit] — [zombie_limit] is how many
    unreferenced Handles may linger before real destruction begins. *)
val create : Tb_sim.Sim.t -> kind:Tb_sim.Cost_model.handle_kind -> zombie_limit:int -> t

val kind : t -> Tb_sim.Cost_model.handle_kind

(** [resident t rid] tells whether [rid] has a resident Handle (live or
    zombie).  Charge-free. *)
val resident : t -> Tb_storage.Rid.t -> bool

(** [acquire t rid] returns [rid]'s resident Handle with its refcount
    bumped, for almost nothing (a charged hit).  Raises [Not_found],
    charging nothing, when {!resident} is false: the caller then charges a
    new Handle with {!reserve}, loads the object's representation (usually
    a {!Handle.Packed}) and registers it with {!install} — in that order,
    which is the charge order of a miss. *)
val acquire : t -> Tb_storage.Rid.t -> Handle.t

(** [reserve t] charges one Handle allocation and claims its simulated
    memory; the result is the bytes claimed, the new Handle's
    [mem_bytes]. *)
val reserve : t -> int

(** [install t h] makes the freshly made [h] (refcount 1, memory already
    {!reserve}d) the resident Handle of its Rid, and returns it. *)
val install : t -> Handle.t -> Handle.t

(** [unreference t h] drops one reference; at zero the Handle becomes a
    zombie and may be destroyed later. Raises [Invalid_argument] if the
    refcount is already zero. *)
val unreference : t -> Handle.t -> unit

(** [find_resident t rid] peeks at a resident Handle without charging or
    changing its refcount (used to keep Handles coherent on update). *)
val find_resident : t -> Tb_storage.Rid.t -> Handle.t option

(** Handles currently resident (live + zombies). *)
val resident_count : t -> int

(** Destroy every resident Handle, charging the frees. *)
val flush : t -> unit

(** Drop everything without charging (used when simulating a process
    restart, whose teardown the paper does not measure). *)
val discard : t -> unit
