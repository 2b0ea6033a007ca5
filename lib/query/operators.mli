(** The charging kernels behind the physical operators.

    treelint's R1 charge discipline is split along this boundary: these
    functions are the modeled engine components and may charge the
    simulated cost model; the interpreter in {!Exec} orchestrates them and
    may not charge anything itself.  Each kernel reproduces the charge
    order of the pre-operator monolithic drivers verbatim — the golden
    counter fingerprint depends on the sequence, not just the totals. *)

(** {2 Payloads}

    A stowed payload ({!Op.regs}) is bytes in the database's
    {!Tb_storage.Arena}: the object's Rid, then its values' encodings,
    copied from where they lie and decoded only when a kept row's
    projection reads them. *)

(** [payload_bytes arena off ~nvals] is the simulated size of the payload
    at [off], which carries [nvals] values: its Rid plus, per value, 4
    bytes and the value's encoded size. *)
val payload_bytes : Tb_storage.Arena.t -> int -> nvals:int -> int

(** [stow arena ~self src at] copies the values encoded in [src] at
    [at.(0)], [at.(1)], ... into a fresh payload of [self] on [arena] and
    returns its offset.  Charge-free: the caller has charged each value's
    access. *)
val stow : Tb_storage.Arena.t -> self:Tb_storage.Rid.t -> bytes -> int array -> int

(** A predicate with its attribute resolved to a schema slot. *)
type compiled_pred = {
  pslot : int;
  pcmp : Oql_ast.cmp;
  pconst : Tb_store.Value.t;
}

val compile_preds :
  Tb_store.Database.t -> cls:string -> Plan.attr_pred list -> compiled_pred list

(** The schema slots of a side's harvested attributes, in order. *)
type harvest

val compile_attrs : Tb_store.Database.t -> cls:string -> string list -> harvest

(** Harvest exactly the given slots from a live Handle into a payload on
    the database's arena, its values in slot order (one charged attribute
    access per slot, through {!Tb_store.Database.get_att_pos}); returns
    its offset. *)
val make_payload : Tb_store.Database.t -> Tb_store.Handle.t -> harvest -> int

(** A projection with every name resolved: variables to registers,
    attributes to schema slots (Handle-backed variables) or payload
    indexes (stowed ones). *)
type projection

(** [compile_select db ~reg ~sources select] resolves the projection
    against the row layout [sources], giving each variable its register
    ([reg]).  Charge-free.  Raises [Invalid_argument] on a variable missing
    from [sources] or an attribute its payload does not carry. *)
val compile_select :
  Tb_store.Database.t ->
  reg:(string -> int) ->
  sources:(string * Op.source) list ->
  Oql_ast.expr ->
  projection

(** [eval_select db regs p] builds one result value from the row in
    [regs]: a Handle-backed attribute charges one attribute access, a
    stowed one nothing. *)
val eval_select : Tb_store.Database.t -> Op.regs -> projection -> Tb_store.Value.t

(** [size_select db regs p] is [Codec.mem_bytes (eval_select db regs p)]
    with the same charges in the same order, and nothing built: each
    attribute is sized where it lies. *)
val size_select : Tb_store.Database.t -> Op.regs -> projection -> int

(** Short-circuit conjunction; one charged comparison and one charged
    attribute access per evaluated predicate. *)
val eval_preds : Tb_store.Database.t -> Tb_store.Handle.t -> compiled_pred list -> bool

(** Resolve a {!Op.key_spec} against a side's class: [K_self] is free,
    [K_inverse] charges one attribute access per row and yields
    {!Tb_storage.Rid.nil} ("no key") on [Nil].  Raises [Invalid_argument]
    when the inverse attribute is not a reference. *)
val compile_key :
  Tb_store.Database.t ->
  cls:string ->
  Op.key_spec ->
  Tb_store.Handle.t ->
  Tb_storage.Rid.t

(** [with_sorted_rids sim rids ~pos ~count f] claims the [count] Rids
    gathered in [rids] from [pos] on, charges their sort, sorts them in
    place and hands [f] the buffer's array inside the claim window, then
    releases the claim — also when [f] raises, so a failed query cannot
    leak simulated RAM.  The vectorized executor chunks its emission from
    within [f]. *)
val with_sorted_rids :
  Tb_sim.Sim.t ->
  Tb_storage.Rid_buf.t ->
  pos:int ->
  count:int ->
  (Tb_storage.Rid.t array -> unit) ->
  unit

(** {2 Sort-merge}

    A sort run gathers (key, payload offset) pairs on the arena's entries
    stack ({!push_pair}) above a position the caller read first
    ({!Tb_storage.Arena.length}), and is sorted by {!claim_and_sort}. *)

type run

val run_length : run -> int

(** Append one (key, payload offset) pair to the run being gathered. *)
val push_pair : Tb_storage.Arena.t -> key:Tb_storage.Rid.t -> int -> unit

(** [claim_and_sort sim arena ~pairs ~bytes] claims [bytes] and sorts the
    pairs gathered from cell [pairs] on by key: the permutation stdlib
    [Array.sort] gives the pairs newest first, ties included.  Ownership
    of the claimed bytes passes to the caller, who must {!release_bytes}
    them (under [Fun.protect]) when the merge is done, and pop the
    entries stack back to [pairs]. *)
val claim_and_sort :
  Tb_sim.Sim.t -> Tb_storage.Arena.t -> pairs:int -> bytes:int -> run

val release_bytes : Tb_sim.Sim.t -> int -> unit

(** Merge two key-sorted runs, charging one comparison per advance and the
    extra disk pass when the combined runs exceed memory; [emit] receives
    the payload offsets of each matching (left, right) pair. *)
val merge_join :
  Tb_sim.Sim.t ->
  Tb_storage.Arena.t ->
  bytes:int ->
  parents:run ->
  children:run ->
  (int -> int -> unit) ->
  unit

(** {2 Spilled partitions}

    A spilled (key, payload) record is the encoded tuple
    [\[@key: Ref key; @self: Ref self; name_1: v_1; ...\]], [names] being
    the harvesting operator's attributes, one per payload value.  It is
    written in place, field by field, each value's bytes copied from the
    payload, and read back into the arena the same way. *)

type spill

(** [new_spill db ~names ~buckets] opens [buckets] fresh temporary heap
    files for payloads on the database's arena carrying [names]. *)
val new_spill :
  Tb_store.Database.t -> names:string list -> buckets:int -> spill

(** [spill sp b ~key off] appends one record to file [b] for the payload
    at arena offset [off] (charged as ordinary heap-page traffic). *)
val spill : spill -> int -> key:Tb_storage.Rid.t -> int -> unit

(** [iter_spilled sp b f] reads file [b] page by page (charged as a heap
    scan) and hands [f] each record's key and the offset of its payload,
    copied onto the arena, in physical order.  The caller pops the arena
    when done with them.  Raises [Invalid_argument] on a corrupt
    record. *)
val iter_spilled : spill -> int -> (Tb_storage.Rid.t -> int -> unit) -> unit

(** [spill_file sp b] is the heap file bucket file [b] spills to. *)
val spill_file : spill -> int -> Tb_storage.Heap_file.t

(** [release_spill db sp] retires every file of [sp]
    ({!Tb_store.Database.release_temp}); charge-free. *)
val release_spill : Tb_store.Database.t -> spill -> unit
