type mode = Standard | Load_off

exception Out_of_memory

type t = {
  sim : Tb_sim.Sim.t;
  wal : Wal.t;
  mutable mode : mode;
  mutable uncommitted : int;
  uncommitted_limit : int;
}

let create sim mode ~uncommitted_limit =
  if uncommitted_limit <= 0 then invalid_arg "Transaction.create: limit";
  { sim; wal = Wal.create sim; mode; uncommitted = 0; uncommitted_limit }

let mode t = t.mode
let set_mode t m = t.mode <- m
let wal t = t.wal
let pending_log_bytes t = Wal.pending_bytes t.wal

let on_write t ~bytes =
  match t.mode with
  | Load_off -> ()
  | Standard ->
      t.uncommitted <- t.uncommitted + 1;
      if t.uncommitted > t.uncommitted_limit then raise Out_of_memory;
      Wal.logical_write t.wal ~bytes

let reset t = t.uncommitted <- 0

let commit t stack =
  (match t.mode with
  | Standard -> Wal.force t.wal
  | Load_off ->
      (* A mode switch mid-transaction used to leave the standard-mode log
         tail pending across the commit, to be charged to the next
         transaction; transaction-off commits now drop it. *)
      Wal.discard t.wal (Tb_storage.Cache_stack.disk stack));
  Tb_storage.Cache_stack.flush stack;
  t.uncommitted <- 0;
  Wal.checkpoint t.wal (Tb_storage.Cache_stack.disk stack)

let abort t stack =
  let disk = Tb_storage.Cache_stack.disk stack in
  let undone = Wal.undo t.wal disk in
  Tb_storage.Cache_stack.drop stack;
  Wal.discard t.wal disk;
  t.uncommitted <- 0;
  undone
