(** Transaction management: standard mode vs the "transaction-off" loading
    mode.

    Section 3.2's loading lessons, reproduced:
    - in standard mode every write is logged (costing I/O) and uncommitted
      objects pile up in memory until the famous "out of memory" — the
      loader must commit every few thousand objects;
    - the transaction-off mode drops the log and the locks, which is how a
      1 GB load gets from 12 hours toward 1.

    The log is a real {!Wal}: standard-mode commits force it, and {!abort}
    rolls the durable state back from its before-images. *)

type mode =
  | Standard  (** log maintained, bounded uncommitted set *)
  | Load_off  (** the O2 transaction-off loading mode *)

exception Out_of_memory
(** Raised in [Standard] mode when too many objects are created without
    committing. *)

type t

(** [create sim mode ~uncommitted_limit] — the limit is the number of
    uncommitted object creations/updates tolerated before
    {!Out_of_memory}.  Owns a fresh {!Wal}. *)
val create : Tb_sim.Sim.t -> mode -> uncommitted_limit:int -> t

val mode : t -> mode
val set_mode : t -> mode -> unit

(** The transaction's log (for observer wiring and recovery). *)
val wal : t -> Wal.t

(** Standard-mode log bytes buffered below one page. *)
val pending_log_bytes : t -> int

(** [on_write t ~bytes] accounts one object creation or update of [bytes]
    encoded size.  In [Standard] mode this appends a logical write record
    to the log (charging one page write per page worth of log) and may
    raise {!Out_of_memory}. *)
val on_write : t -> bytes:int -> unit

(** [commit t stack] forces the log (standard mode; transaction-off drops
    it, including any tail left by a mid-transaction mode switch), flushes
    dirty pages, releases the uncommitted set, and truncates the log. *)
val commit : t -> Tb_storage.Cache_stack.t -> unit

(** [abort t stack] rolls back: restores durable before-images from the
    log, drops both caches (the volatile working pages), and releases the
    uncommitted set.  Returns the number of pages restored.  In
    transaction-off mode there are no images — writes since the last
    commit are simply lost, caches dropped. *)
val abort : t -> Tb_storage.Cache_stack.t -> int

(** Release the uncommitted set without touching the log or caches
    (recovery bookkeeping). *)
val reset : t -> unit
