(** The charging kernels behind the physical operators.

    treelint's R1 charge discipline is split along this boundary: these
    functions are the modeled engine components and may charge the
    simulated cost model; the interpreter in {!Exec} orchestrates them and
    may not charge anything itself.  Each kernel reproduces the charge
    order of the pre-operator monolithic drivers verbatim — the golden
    counter fingerprint depends on the sequence, not just the totals. *)

(** Simulated size of a stowed payload: its Rid plus, per value, 4 bytes
    and the value's encoded size. *)
val payload_bytes : Op.payload -> int

(** A predicate with its attribute resolved to a schema slot. *)
type compiled_pred = {
  pslot : int;
  pcmp : Oql_ast.cmp;
  pconst : Tb_store.Value.t;
}

val compile_preds :
  Tb_store.Database.t -> cls:string -> Plan.attr_pred list -> compiled_pred list

(** The schema slots of a side's harvested attributes, in order. *)
val compile_attrs : Tb_store.Database.t -> cls:string -> string list -> int array

(** Harvest exactly the given slots from a live Handle into a payload whose
    [vals] follow the slot array (one charged attribute access per slot). *)
val make_payload :
  Tb_store.Database.t -> Tb_store.Handle.t -> slots:int array -> Op.payload

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

(** [with_sorted_rids sim ~rids ~count f] claims the Rid buffer, charges
    the sort, hands [f] the sorted array inside the claim window and
    releases the claim — also when [f] raises ([Fun.protect]), so a failed
    query cannot leak simulated RAM.  The vectorized executor chunks its
    emission from within [f]. *)
val with_sorted_rids :
  Tb_sim.Sim.t ->
  rids:Tb_storage.Rid.t list ->
  count:int ->
  (Tb_storage.Rid.t array -> unit) ->
  unit

(** [sorted_rids sim ~rids ~count f] is {!with_sorted_rids} streaming one
    Rid at a time. *)
val sorted_rids :
  Tb_sim.Sim.t -> rids:Tb_storage.Rid.t list -> count:int -> (Tb_storage.Rid.t -> unit) -> unit

(** [n log n] comparisons plus write+read passes when the run exceeds
    memory. *)
val charge_external_sort : Tb_sim.Sim.t -> elems:int -> bytes:int -> unit

(** Claim a gathered (key, payload) run and sort it by key.  Ownership of
    the claimed bytes passes to the caller, who must
    {!release_bytes} them (under [Fun.protect]) when the merge is done. *)
val claim_and_sort :
  Tb_sim.Sim.t ->
  (Tb_storage.Rid.t * Op.payload) list ->
  bytes:int ->
  (Tb_storage.Rid.t * Op.payload) array

val release_bytes : Tb_sim.Sim.t -> int -> unit

(** Merge two key-sorted runs, charging one comparison per advance and the
    extra disk pass when the combined runs exceed memory; [emit] receives
    each matching (left, right) payload pair. *)
val merge_join :
  Tb_sim.Sim.t ->
  bytes:int ->
  parents:(Tb_storage.Rid.t * Op.payload) array ->
  children:(Tb_storage.Rid.t * Op.payload) array ->
  (Op.payload -> Op.payload -> unit) ->
  unit

(** Decode one spilled record back into (key, payload).
    Raises [Invalid_argument] on corrupt records. *)
val unspill_record : bytes -> Tb_storage.Rid.t * Op.payload

(** [n] fresh temporary heap files for spilled partitions. *)
val new_spill_files : Tb_store.Database.t -> int -> Tb_storage.Heap_file.t array

(** Append one (key, payload) record to a spill file (charged as ordinary
    heap-page traffic).  [names] are the harvesting operator's attributes,
    one per payload value: the record is the tuple
    [\[@key; @self; names...\]]. *)
val spill :
  Tb_storage.Heap_file.t ->
  names:string list ->
  key:Tb_storage.Rid.t ->
  Op.payload ->
  unit
