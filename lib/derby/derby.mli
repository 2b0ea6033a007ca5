(** The Derby doctors-and-patients schema (Figure 1), as the paper adapted
    it from the 1997 Derby benchmark schema.

    Object sizes reproduce the paper's arithmetic: 16-character strings,
    4-byte integers, 8-byte references put a [Provider] at ~120 bytes and a
    [Patient] at ~60 (clients sets above a page spill to a separate file,
    making the 1:1000 provider slightly smaller). *)

val schema : Tb_store.Schema.t

(** Class and extent names. *)
val provider_cls : string

val patient_cls : string

(** [provider_value ~upin ~clients] builds a conforming Provider.  [clients]
    is the inline set value ([Set] of refs, or a placeholder). *)
val provider_value : upin:int -> clients:Tb_store.Value.t -> Tb_store.Value.t

(** [patient_value ~mrn ~age ~sex ~random_integer ~num ~pcp] builds a
    conforming Patient. *)
val patient_value :
  mrn:int ->
  age:int ->
  sex:char ->
  random_integer:int ->
  num:int ->
  pcp:Tb_store.Value.t ->
  Tb_store.Value.t
