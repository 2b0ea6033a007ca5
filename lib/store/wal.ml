module Page_id = Tb_storage.Page_id
module Page_layout = Tb_storage.Page_layout
module Disk = Tb_storage.Disk
module Fault = Tb_storage.Fault
module Int_table = Tb_storage.Int_table

(* One consolidated physical record per (transaction, page): the
   before-image captured when a write first reaches the page's durable
   image before the commit record does (a steal), the after-image captured
   when the commit record is forced.  [page] is refreshed on every write
   fetch so the after-image is always read from the live working object,
   never from a copy that eviction already replaced.

   A page that is never stolen needs no before-image: a first touch finds
   the page clean (a commit flushes every page, an abort or crash drops
   them), so its durable image holds the pre-transaction bytes until the
   first steal, which is where the copy is taken. *)
type touch = {
  pid : Page_id.t;
  mutable page : Page_layout.t;
  mutable before : Bytes.t option;
  mutable before_lsn : int;
  lsn : int;
  mutable after : Bytes.t option;
}

type t = {
  sim : Tb_sim.Sim.t;
  touched : touch Int_table.t; (* keyed by the packed Page_id *)
  mutable order : touch list; (* reverse first-touch order = undo order *)
  mutable pending : int; (* log bytes not yet filling a whole page *)
  mutable next_lsn : int;
  mutable commit_durable : bool;
  mutable fault : Fault.t option;
}

let create sim =
  {
    sim;
    touched = Int_table.create 64;
    order = [];
    pending = 0;
    next_lsn = 1;
    commit_durable = false;
    fault = None;
  }

let set_fault t f = t.fault <- f
let pending_bytes t = t.pending
let commit_durable t = t.commit_durable
let touched_pages t = Int_table.length t.touched

let stolen_pages t =
  List.fold_left (fun n tch -> if Option.is_some tch.before then n + 1 else n) 0 t.order

let tick_write t =
  match t.fault with
  | None -> ()
  | Some f -> (
      match Fault.on_write f with
      | Fault.Ok -> ()
      | Fault.Crash_lost | Fault.Crash_torn ->
          (* A torn log-page write loses its tail records just the same:
             either way this write — and everything it would have made
             durable — never happened. *)
          raise Fault.Crash)

(* The write observer: runs on every [Cache_stack.fetch_for_write].  A first
   touch appends the page's physical record; repeat touches only re-point
   [page] at the current working object.  Charge-free: the paper's
   "before/after images go to the log" I/O is already priced by
   [logical_write]'s byte accounting, and a per-page physical record is a
   consolidation of those same bytes, not new ones. *)
let note_touch t (pid : Page_id.t) page =
  match Int_table.find_opt t.touched (pid :> int) with
  | Some tch -> tch.page <- page
  | None ->
      Tb_sim.Sim.charge_wal_append t.sim;
      let lsn = t.next_lsn in
      t.next_lsn <- lsn + 1;
      let tch =
        { pid; page; before = None; before_lsn = 0; lsn; after = None }
      in
      Page_layout.set_lsn page lsn;
      Int_table.replace t.touched (pid :> int) tch;
      t.order <- tch :: t.order

(* The persist observer: runs before every write of a dirty page to disk.
   The first write of a touched page while the commit record is not yet
   durable is a steal; copy the durable image it is about to overwrite (in
   the disk's spare buffer when one is left) as the page's before-image. *)
let note_persist t disk (pid : Page_id.t) =
  if not t.commit_durable then
    match Int_table.find_opt t.touched (pid :> int) with
    | Some ({ before = None; _ } as tch) ->
        let buf = Disk.take_spare disk in
        tch.before_lsn <- Disk.copy_image disk pid buf;
        tch.before <- Some buf
    | Some _ | None -> ()

(* One logical write record: [bytes] of before-image plus [bytes] of
   after-image join the log, and every filled log page costs one disk
   write.  This is, to the byte, the `log_bytes_pending` arithmetic the
   pre-WAL [Transaction.on_write] charged — the cost accounting is now
   derived from the records instead of asserted. *)
let logical_write t ~bytes =
  Tb_sim.Sim.charge_wal_append t.sim;
  t.pending <- t.pending + (2 * bytes);
  let page = t.sim.Tb_sim.Sim.cost.Tb_sim.Cost_model.page_size in
  while t.pending >= page do
    tick_write t;
    Tb_sim.Sim.charge_disk_write t.sim;
    t.pending <- t.pending - page
  done

(* Force the commit record: flush the partial log tail (one write, exactly
   the old commit-time charge), then capture after-images.  When the tail is
   empty the commit record piggybacks on the last full log page at no extra
   charge.  [commit_durable] flips only once the tail write survives — a
   crash during the force leaves a loser.  After-images are captured only
   under an armed fault layer: without one no crash can interrupt the
   upcoming page flush, so the copies would be pure host cost. *)
let force t =
  Tb_sim.Sim.charge_wal_append t.sim;
  if t.pending > 0 then begin
    tick_write t;
    Tb_sim.Sim.charge_disk_write t.sim;
    t.pending <- 0
  end;
  if Option.is_some t.fault then
    List.iter
      (fun tch -> tch.after <- Some (Page_layout.snapshot tch.page))
      t.order;
  t.commit_durable <- true

(* Truncate the log after a completed commit: serial transactions need no
   history past the last checkpoint.  The retired before-images return to
   the disk's spares; nothing reads them again (undo and redo run before
   this). *)
let checkpoint t disk =
  Int_table.reset t.touched;
  List.iter
    (fun tch ->
      match tch.before with
      | Some b -> Disk.give_spare disk b
      | None -> ())
    t.order;
  t.order <- [];
  t.commit_durable <- false

(* Drop everything including the unflushed tail: transaction-off commits
   (which never logged their writes' images to begin with) and abort. *)
let discard t disk =
  checkpoint t disk;
  t.pending <- 0

(* Roll back: restore every stolen page's durable image to its
   before-image, newest touch first.  A page never stolen still holds its
   pre-transaction image.  Restores only pages whose image actually
   diverged (a steal may have written back unchanged bytes), charging one
   undo write each. *)
let undo t disk =
  let restored = ref 0 in
  List.iter
    (fun tch ->
      match tch.before with
      | Some before when not (Disk.image_equal disk tch.pid before) ->
          Tb_sim.Sim.charge_undo_page t.sim;
          Disk.restore_image disk tch.pid before ~lsn:tch.before_lsn;
          incr restored
      | Some _ | None -> ())
    t.order;
  !restored

(* Replay a winner: restore every touched page's durable image to its
   after-image, oldest touch first. *)
let redo t disk =
  let restored = ref 0 in
  List.iter
    (fun tch ->
      match tch.after with
      | None -> failwith "Wal.redo: commit record without after-images"
      | Some after ->
          if not (Disk.image_equal disk tch.pid after) then begin
            Tb_sim.Sim.charge_redo_page t.sim;
            Disk.restore_image disk tch.pid after ~lsn:tch.lsn;
            incr restored
          end)
    (List.rev t.order);
  !restored
