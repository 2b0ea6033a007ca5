module Rid = Tb_storage.Rid
module Heap_file = Tb_storage.Heap_file
module Page_layout = Tb_storage.Page_layout
module String_table = Hashtbl.Make (String)

(* A catalog checkpoint: the volatile state that pages alone cannot
   recover.  Captured after every commit (and, for a commit in flight, at
   commit-record force time), reinstated by rollback and crash recovery.
   Heap files, trees and index definitions are shared mutable objects;
   the checkpoint records the scalars needed to rewind them. *)
type ckpt = {
  ck_class_files : (string * Heap_file.t) list;
  ck_index_list : Index_def.t list;
  ck_next_index_id : int;
  ck_cardinalities : (string * int) list;
  ck_files : (Heap_file.t * int) list; (* heap, tail page *)
  ck_btrees : (Btree.t * Btree.state) list;
  ck_page_counts : int array; (* per disk file, in file-id order *)
}

type t = {
  sim : Tb_sim.Sim.t;
  stack : Tb_storage.Cache_stack.t;
  schema : Schema.t;
  handles : Handle_table.t;
  txn : Transaction.t;
  collections : Heap_file.t;
  mutable files_by_id : Heap_file.t option array;  (* by disk file id *)
  mutable class_files : (string * Heap_file.t) list;
  mutable index_list : Index_def.t list;
  mutable next_index_id : int;
  cardinalities : int ref String_table.t;
  mutable commit_seq : int;
  mutable checkpoint : ckpt;
  mutable pending_ckpt : ckpt option;
  mutable on_commit : (seq:int -> unit) option;
  (* The write path's scratch, reused by every write (see "Writes"
     below): the record buffer, with [Heap_file.frame_room] bytes in front
     of the body; the old and new key of each index on the written class,
     in index order; the sets the last [body_size] walk found to spill. *)
  mutable wbuf : bytes;
  mutable old_keys : int array;
  mutable new_keys : int array;
  mutable spills : int;
  (* Scratch files whose user is done with them while the log still
     holds touches of theirs; marked dead once the log is checkpointed or
     discarded (see [release_temp]). *)
  mutable retired : int list;
}

let register_file t heap =
  let id = Heap_file.file_id heap in
  if id >= Array.length t.files_by_id then begin
    let grown = Array.make (max (id + 1) (2 * Array.length t.files_by_id)) None in
    Array.blit t.files_by_id 0 grown 0 (Array.length t.files_by_id);
    t.files_by_id <- grown
  end;
  t.files_by_id.(id) <- Some heap;
  heap

let take_ckpt t =
  {
    ck_class_files = t.class_files;
    ck_index_list = t.index_list;
    ck_next_index_id = t.next_index_id;
    ck_cardinalities =
      String_table.fold (fun cls r acc -> (cls, !r) :: acc) t.cardinalities [];
    ck_files =
      Array.fold_left
        (fun acc -> function
          | Some hf -> (hf, Heap_file.tail hf) :: acc
          | None -> acc)
        [] t.files_by_id;
    ck_btrees =
      List.map
        (fun ix -> (ix.Index_def.tree, Btree.checkpoint ix.Index_def.tree))
        t.index_list;
    ck_page_counts = Tb_storage.Disk.page_counts (Tb_storage.Cache_stack.disk t.stack);
  }

(* Reinstate a checkpoint: drop files and pages created past it, rewind
   the catalog scalars, reset tree roots. *)
let install_ckpt t c =
  let disk = Tb_storage.Cache_stack.disk t.stack in
  Tb_storage.Disk.truncate_files disk ~keep:(Array.length c.ck_page_counts);
  Array.iteri
    (fun file pages -> Tb_storage.Disk.truncate_file disk ~file ~pages)
    c.ck_page_counts;
  t.class_files <- c.ck_class_files;
  t.index_list <- c.ck_index_list;
  t.next_index_id <- c.ck_next_index_id;
  String_table.reset t.cardinalities;
  List.iter
    (fun (cls, n) -> String_table.replace t.cardinalities cls (ref n))
    c.ck_cardinalities;
  Array.fill t.files_by_id 0 (Array.length t.files_by_id) None;
  List.iter
    (fun (hf, tail) ->
      ignore (register_file t hf);
      Heap_file.set_tail hf tail)
    c.ck_files;
  List.iter (fun (tree, st) -> Btree.restore tree st) c.ck_btrees

let create sim ~schema ~server_pages ~client_pages
    ?(handle_kind = Tb_sim.Cost_model.Fat) ?(zombie_limit = 8192)
    ?(txn_mode = Transaction.Standard) ?(uncommitted_limit = 50_000) () =
  let disk = Tb_storage.Disk.create sim in
  let stack = Tb_storage.Cache_stack.create sim disk ~server_pages ~client_pages in
  let t =
    {
      sim;
      stack;
      schema;
      handles = Handle_table.create sim ~kind:handle_kind ~zombie_limit;
      txn = Transaction.create sim txn_mode ~uncommitted_limit;
      collections = Heap_file.create stack ~name:"__collections";
      files_by_id = Array.make 16 None;
      class_files = [];
      index_list = [];
      next_index_id = 0;
      cardinalities = String_table.create 16;
      commit_seq = 0;
      checkpoint =
        {
          ck_class_files = [];
          ck_index_list = [];
          ck_next_index_id = 0;
          ck_cardinalities = [];
          ck_files = [];
          ck_btrees = [];
          ck_page_counts = [||];
        };
      pending_ckpt = None;
      on_commit = None;
      wbuf = Bytes.create 256;
      old_keys = Array.make 4 0;
      new_keys = Array.make 4 0;
      spills = 0;
      retired = [];
    }
  in
  ignore (register_file t t.collections);
  (* The WAL observes every write fetch; transaction-off mode logs
     nothing, exactly as O2's loading mode drops the log. *)
  Tb_storage.Cache_stack.set_write_observer stack
    (Some
       (fun pid page ->
         if Transaction.mode t.txn = Transaction.Standard then
           Wal.note_touch (Transaction.wal t.txn) pid page));
  Tb_storage.Cache_stack.set_persist_observer stack
    (Some (Wal.note_persist (Transaction.wal t.txn) (Tb_storage.Cache_stack.disk stack)));
  t.checkpoint <- take_ckpt t;
  t

let sim t = t.sim
let schema t = t.schema
let stack t = t.stack
let txn t = t.txn
let handles t = t.handles
let collections_file t = t.collections
let new_file t ~name = register_file t (Heap_file.create t.stack ~name)

let bind_class t ~cls file =
  ignore (Schema.find_class t.schema cls);
  t.class_files <-
    (cls, file)
    :: List.filter (fun (c, _) -> not (String.equal c cls)) t.class_files;
  if not (String_table.mem t.cardinalities cls) then
    String_table.replace t.cardinalities cls (ref 0)

let rec find_class_file cls = function
  | [] -> raise Not_found
  | (c, f) :: rest -> if String.equal c cls then f else find_class_file cls rest

let class_file t ~cls = find_class_file cls t.class_files

let heap_of_rid t (rid : Rid.t) =
  let files = t.files_by_id and id = Rid.file rid in
  match if id >= 0 && id < Array.length files then files.(id) else None with
  | Some heap -> heap
  | None -> invalid_arg "Database: rid belongs to no registered file"

(* Objects are encoded schema-positionally: the header carries the class
   id, and attribute values follow in schema order with no field names —
   which is how a 60-byte Patient stays 60 bytes (the paper's size
   arithmetic, Section 2). *)
let decode_object schema body =
  let header, pos = Obj_header.decode body ~pos:0 in
  let cls = Schema.class_of_id schema (Obj_header.class_id header) in
  let pos = ref pos in
  let fields =
    List.map
      (fun (attr, _) ->
        let v, pos' = Codec.decode body ~pos:!pos in
        pos := pos';
        (attr, v))
      cls.Schema.attrs
  in
  (header, Value.Tuple fields)

(* {2 Writes}

   Every write of an object record goes through bytes.  The old record is
   read where it lies in the page ([Heap_file.locate]): its class id and
   old index keys are integers read in place.  The new value is walked
   once against the class's attributes, positionally, which checks it
   ([Schema.conforms]) and sizes it as it will be stored, spills
   included; it is then encoded, header and framing room included, into
   [t.wbuf], which [Heap_file.update] or [insert_body] copies into the
   page.  The buffer is reused by the next write, and its contents are
   dead once that copy is made.  A resident Handle of the record is
   re-pointed at the bytes just written.

   None of this charges: the charges are those of the calls it makes, in
   the order the value-building path made them — the read fetch, the
   spill of oversized sets, the B+-tree deletes and inserts in index
   order, then the write fetch with its WAL touch — and
   [Transaction.on_write] sees the body's byte count.  Every check that
   can fail (conformance, integer index keys) runs before the first of
   those mutations. *)

(* The bytes [v] takes in its record, or -1 when it does not conform to
   [ty] (the cases of [Schema.conforms]).  Outside collections ([top]) a
   set whose encoding exceeds the spill threshold is stored as a
   [Big_set] reference: it counts as one, and in [t.spills]. *)
let rec stored_size t ~top (ty : Schema.ty) (v : Value.t) =
  match (ty, v) with
  | _, Value.Nil -> 1
  | Schema.TInt, Value.Int _ -> 5
  | Schema.TReal, Value.Real _ -> 9
  | Schema.TBool, Value.Bool _ | Schema.TChar, Value.Char _ -> 2
  | Schema.TString, Value.String s -> 3 + String.length s
  | Schema.TRef _, Value.Ref _
  | (Schema.TSet _ | Schema.TList _), Value.Big_set _ ->
      1 + Rid.on_disk_bytes
  | Schema.TSet ety, Value.Set xs ->
      let n = elems_size t ety xs 5 in
      if top && n > Big_collection.spill_threshold then begin
        t.spills <- t.spills + 1;
        1 + Rid.on_disk_bytes
      end
      else n
  | Schema.TList ety, Value.List xs -> elems_size t ety xs 5
  | Schema.TTuple tys, Value.Tuple fields -> fields_size t ~top ~named:true tys fields 3
  | ( ( Schema.TInt | Schema.TReal | Schema.TBool | Schema.TChar | Schema.TString
      | Schema.TRef _ | Schema.TSet _ | Schema.TList _ | Schema.TTuple _ ),
      _ ) ->
      -1

and elems_size t ety xs acc =
  match xs with
  | [] -> acc
  | x :: rest ->
      let n = stored_size t ~top:false ety x in
      if n < 0 then -1 else elems_size t ety rest (acc + n)

(* [named]: a nested tuple's fields carry their names; an object's
   attributes do not. *)
and fields_size t ~top ~named tys fields acc =
  match (tys, fields) with
  | [], [] -> acc
  | (name, ty) :: tys, (name', v) :: fields when String.equal name name' ->
      let n = stored_size t ~top ty v in
      if n < 0 then -1
      else
        let label = if named then 2 + String.length name else 0 in
        fields_size t ~top ~named tys fields (acc + label + n)
  | _ -> -1

(* The stored size of an object value's attributes, -1 if it does not
   conform to [cls]. *)
let body_size t (cls : Schema.cls) value =
  t.spills <- 0;
  match value with
  | Value.Tuple fields -> fields_size t ~top:true ~named:false cls.Schema.attrs fields 0
  | _ -> -1

(* Spill oversized inline collections into the collection file. *)
let rec spill t v =
  match v with
  | Value.Tuple fields ->
      Value.Tuple (List.map (fun (n, x) -> (n, spill t x)) fields)
  | Value.Set xs when Codec.encoded_size v > Big_collection.spill_threshold ->
      Value.Big_set (Big_collection.create t.collections xs)
  | Value.Nil | Value.Int _ | Value.Real _ | Value.Bool _ | Value.Char _
  | Value.String _ | Value.Ref _ | Value.Set _ | Value.List _
  | Value.Big_set _ ->
      v

(* [t.wbuf] with room for a [len]-byte body behind its framing room. *)
let wbuf t ~len =
  let need = Heap_file.frame_room + len in
  if Bytes.length t.wbuf < need then
    t.wbuf <- Bytes.create (max need (2 * Bytes.length t.wbuf));
  t.wbuf

let rec put_attrs fields buf ~pos =
  match fields with
  | [] -> pos
  | (_, v) :: rest -> put_attrs rest buf ~pos:(Codec.encode_into v buf ~pos)

(* Encode a conforming value's attributes from [pos]; the position past
   them.  Spills its oversized sets first, when [body_size] found any. *)
let encode_attrs t value buf ~pos =
  match if t.spills > 0 then spill t value else value with
  | Value.Tuple fields -> put_attrs fields buf ~pos
  | _ -> invalid_arg "Database: object value is not a tuple"

let rec nth_int fields slot =
  match fields with
  | (_, Value.Int k) :: _ when slot = 0 -> k
  | _ :: rest when slot > 0 -> nth_int rest (slot - 1)
  | _ -> invalid_arg "Database: indexed attribute is not an integer"

(* The integer attribute [slot] of the record whose attributes start at
   [body], read in place. *)
let key_at buf ~body slot =
  let pos = ref body in
  for _ = 1 to slot do
    pos := Codec.skip buf ~pos:!pos
  done;
  match Codec.int_at buf ~pos:!pos with
  | k -> k
  | exception Invalid_argument _ ->
      invalid_arg "Database: indexed attribute is not an integer"

let key_room t i =
  if i >= Array.length t.old_keys then begin
    let grow a =
      let b = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.old_keys <- grow t.old_keys;
    t.new_keys <- grow t.new_keys
  end

(* The key loops walk the catalog's index list, keeping those on [cls]:
   plain recursion, so a write allocates no filtered list or closure. *)

(* Old keys off a record in place, from index [i] on; the count. *)
let rec old_keys t ~class_id (cls : Schema.cls) buf ~body ixs i =
  match ixs with
  | [] -> i
  | ix :: rest when String.equal ix.Index_def.cls cls.Schema.cls_name ->
      key_room t i;
      t.old_keys.(i) <-
        key_at buf ~body (Schema.attr_slot t.schema ~class_id ~attr:ix.Index_def.attr);
      old_keys t ~class_id cls buf ~body rest (i + 1)
  | _ :: rest -> old_keys t ~class_id cls buf ~body rest i

(* New keys off a conforming value's attribute list. *)
let rec new_keys t ~class_id (cls : Schema.cls) fields ixs i =
  match ixs with
  | [] -> i
  | ix :: rest when String.equal ix.Index_def.cls cls.Schema.cls_name ->
      key_room t i;
      t.new_keys.(i) <-
        nth_int fields (Schema.attr_slot t.schema ~class_id ~attr:ix.Index_def.attr);
      new_keys t ~class_id cls fields rest (i + 1)
  | _ :: rest -> new_keys t ~class_id cls fields rest i

let value_fields = function
  | Value.Tuple fields -> fields
  | _ -> invalid_arg "Database: object value is not a tuple"

(* Index maintenance in index order: [`Insert] the new keys, [`Delete]
   the old ones, or [`Move] each entry whose key changed. *)
let rec edit_indexes t (cls : Schema.cls) rid edit ixs i =
  match ixs with
  | [] -> ()
  | ix :: rest when String.equal ix.Index_def.cls cls.Schema.cls_name ->
      let tree = ix.Index_def.tree in
      (match edit with
      | `Insert -> Btree.insert tree ~key:t.new_keys.(i) ~rid
      | `Delete -> ignore (Btree.delete tree ~key:t.old_keys.(i) ~rid : bool)
      | `Move ->
          let old_key = t.old_keys.(i) and new_key = t.new_keys.(i) in
          if not (Int.equal old_key new_key) then begin
            ignore (Btree.delete tree ~key:old_key ~rid : bool);
            Btree.insert tree ~key:new_key ~rid
          end);
      edit_indexes t cls rid edit rest (i + 1)
  | _ :: rest -> edit_indexes t cls rid edit rest i

(* Point [rid]'s resident Handle, if any, at the body the last write of
   [heap] put on [page]. *)
let repoint t heap rid page =
  let h = Handle_table.find_resident t.handles rid in
  if (h :> int) >= 0 then begin
    let slot = Heap_file.located_slot heap and pos = Heap_file.located_pos heap in
    let buf = Page_layout.buffer page in
    let body = Obj_header.skip buf ~pos in
    Handle.repoint (Handle_table.slab t.handles) h
      ~class_id:(Obj_header.peek_class_id buf ~pos)
      ~page ~slot
      ~delta:(body - Page_layout.record_offset page slot)
      ~body
  end

(* Rewrite [rid] with the [len]-byte body in [t.wbuf]. *)
let write_record t heap rid ~len =
  repoint t heap rid (Heap_file.update heap rid t.wbuf ~len);
  Transaction.on_write t.txn ~bytes:len

let rec add_memberships buf ~pos cls ixs =
  match ixs with
  | [] -> ()
  | ix :: rest ->
      if String.equal ix.Index_def.cls cls then
        Obj_header.add_index_at buf ~pos ix.Index_def.id;
      add_memberships buf ~pos cls rest

let non_conforming fn (cls : Schema.cls) =
  invalid_arg ("Database." ^ fn ^ ": value does not conform to " ^ cls.Schema.cls_name)

let insert_object t ~cls ?(indexed = false) value =
  let heap = class_file t ~cls in
  let class_id = Schema.class_id t.schema cls in
  let c = Schema.class_of_id t.schema class_id in
  let size = body_size t c value in
  if size < 0 then non_conforming "insert_object" c;
  let n = new_keys t ~class_id c (value_fields value) t.index_list 0 in
  let slots =
    if indexed || n > 0 then
      let d = Obj_header.default_slot_count in
      d * max 1 ((n + d - 1) / d)
    else 0
  in
  let pos = Heap_file.frame_room in
  let buf = wbuf t ~len:(4 + (2 * slots) + size) in
  let body = Obj_header.write_fresh buf ~pos ~class_id ~slots in
  add_memberships buf ~pos cls t.index_list;
  let len = body - pos + size in
  let fin = encode_attrs t value buf ~pos:body in
  assert (fin = pos + len);
  let page = Heap_file.insert_body heap buf ~len in
  let rid = Heap_file.located_rid heap in
  (* A freed slot is reused: a Handle left resident on a deleted object's
     Rid must see this one. *)
  repoint t heap rid page;
  Transaction.on_write t.txn ~bytes:len;
  (match String_table.find t.cardinalities cls with
  | r -> incr r
  | exception Not_found -> String_table.replace t.cardinalities cls (ref 1));
  edit_indexes t c rid `Insert t.index_list 0;
  rid

let read_object t rid = decode_object t.schema (Heap_file.read (heap_of_rid t rid) rid)

(* Packed load: locate the record in the buffer pool and note where its
   attributes start — no body copy, no offsets table, no header slots array.
   Attribute reads skip-walk the page bytes from the slot's body offset on
   demand.  The charge sequence is identical to the old copy-out load
   (locate fetches the same pages [Heap_file.read] did); only host work
   changes.  Neither a hit nor a miss allocates: a Handle is a slab slot. *)
let acquire t rid =
  let h = Handle_table.find_resident t.handles rid in
  if (h :> int) >= 0 then Handle_table.acquire t.handles h
  else begin
    Handle_table.reserve t.handles;
    let heap = heap_of_rid t rid in
    let page = Heap_file.locate heap rid in
    let slot = Heap_file.located_slot heap in
    let pos = Heap_file.located_pos heap in
    let buf = Tb_storage.Page_layout.buffer page in
    let body = Obj_header.skip buf ~pos in
    Handle_table.install t.handles
      (Handle.alloc_packed (Handle_table.slab t.handles) ~rid
         ~class_id:(Obj_header.peek_class_id buf ~pos)
         ~page ~slot
         ~delta:(body - Tb_storage.Page_layout.record_offset page slot)
         ~body)
  end

let unref t h = Handle_table.unreference t.handles h
let slab t = Handle_table.slab t.handles
let handle_rid t h = Handle.rid (slab t) h
let packed_buf t h = Handle.packed_buf (slab t) h
let packed_body t h = Handle.packed_body (slab t) h

(* The position of [slot]'s encoding in [buf], the Handle's page bytes. *)
let att_pos s h buf slot =
  let pos = ref (Handle.packed_body s h) in
  for _ = 1 to slot do
    pos := Codec.skip buf ~pos:!pos
  done;
  !pos

let get_att_slot t h slot =
  Tb_sim.Sim.charge_get_att t.sim;
  let s = slab t in
  let buf = Handle.packed_buf s h in
  Codec.decode_value buf ~pos:(att_pos s h buf slot)

let get_att_mem_bytes t h slot =
  Tb_sim.Sim.charge_get_att t.sim;
  let s = slab t in
  let buf = Handle.packed_buf s h in
  Codec.mem_bytes_at buf ~pos:(att_pos s h buf slot)

let attr_slot t ~cls attr =
  match Schema.attr_slot t.schema ~class_id:(Schema.class_id t.schema cls) ~attr with
  | slot -> slot
  | exception Not_found -> invalid_arg ("Database.attr_slot: no field " ^ attr)

let get_att t h attr =
  match Schema.attr_slot t.schema ~class_id:(Handle.class_id (slab t) h) ~attr with
  | slot -> get_att_slot t h slot
  | exception Not_found ->
      Tb_sim.Sim.charge_get_att t.sim;
      invalid_arg ("Value.field: no field " ^ attr)

(* Materialize a Handle's full value (slow path: tests). *)
let handle_value t h =
  let s = slab t in
  let cls = Schema.class_of_id t.schema (Handle.class_id s h) in
  let buf = Handle.packed_buf s h in
  let pos = ref (Handle.packed_body s h) in
  Value.Tuple
    (List.map
       (fun (name, _) ->
         let v, pos' = Codec.decode buf ~pos:!pos in
         pos := pos';
         (name, v))
       cls.Schema.attrs)

let class_name t h =
  (Schema.class_of_id t.schema (Handle.class_id (slab t) h)).Schema.cls_name

let update_object t rid value =
  let heap = heap_of_rid t rid in
  let page = Heap_file.locate heap rid in
  let buf = Page_layout.buffer page and pos = Heap_file.located_pos heap in
  let class_id = Obj_header.peek_class_id buf ~pos in
  let c = Schema.class_of_id t.schema class_id in
  let size = body_size t c value in
  if size < 0 then non_conforming "update_object" c;
  let body = Obj_header.skip buf ~pos in
  ignore (old_keys t ~class_id c buf ~body t.index_list 0 : int);
  ignore (new_keys t ~class_id c (value_fields value) t.index_list 0 : int);
  (* The header is kept byte for byte; copy it before anything else runs. *)
  let hlen = body - pos in
  let len = hlen + size in
  let wb = wbuf t ~len in
  Bytes.blit buf pos wb Heap_file.frame_room hlen;
  let fin = encode_attrs t value wb ~pos:(Heap_file.frame_room + hlen) in
  assert (fin = Heap_file.frame_room + len);
  edit_indexes t c rid `Move t.index_list 0;
  write_record t heap rid ~len

let delete_object t rid =
  let heap = heap_of_rid t rid in
  let page = Heap_file.locate heap rid in
  let buf = Page_layout.buffer page and pos = Heap_file.located_pos heap in
  let class_id = Obj_header.peek_class_id buf ~pos in
  let c = Schema.class_of_id t.schema class_id in
  let body = Obj_header.skip buf ~pos in
  ignore (old_keys t ~class_id c buf ~body t.index_list 0 : int);
  edit_indexes t c rid `Delete t.index_list 0;
  Heap_file.delete heap rid;
  Transaction.on_write t.txn ~bytes:16;
  match String_table.find t.cardinalities c.Schema.cls_name with
  | r -> decr r
  | exception Not_found -> ()

let iter_set t v f =
  match v with
  | Value.Set xs | Value.List xs -> List.iter f xs
  | Value.Big_set head -> Big_collection.iter t.collections head f
  | Value.Nil -> ()
  | Value.Int _ | Value.Real _ | Value.Bool _ | Value.Char _ | Value.String _
  | Value.Ref _ | Value.Tuple _ ->
      invalid_arg "Database.iter_set: not a collection"

let set_length t v =
  let n = ref 0 in
  iter_set t v (fun _ -> incr n);
  !n

(* Pull-style extent scan, a page at a time: the executor's Seq_scan
   operator takes each page's matching Rids as a slice of the cursor's own
   buffer.  A page is fetched (and charged) exactly when the cursor first
   needs a Rid from it, and the per-page record walk is chargeless. *)
type cursor = {
  c_heap : Heap_file.t;
  c_want : int;
  c_pages : int;
  mutable c_page : int;
  mutable c_rids : Rid.t array;  (* the current page's matches, reused *)
  mutable c_len : int;
}

let scan_cursor t ~cls =
  let heap = class_file t ~cls in
  {
    c_heap = heap;
    c_want = Schema.class_id t.schema cls;
    c_pages = Heap_file.page_count heap;
    c_page = 0;
    c_rids = Array.make 64 Rid.nil;
    c_len = 0;
  }

let cursor_push cur rid =
  if cur.c_len = Array.length cur.c_rids then begin
    let grown = Array.make (2 * cur.c_len) Rid.nil in
    Array.blit cur.c_rids 0 grown 0 cur.c_len;
    cur.c_rids <- grown
  end;
  cur.c_rids.(cur.c_len) <- rid;
  cur.c_len <- cur.c_len + 1

(* Refill the buffer from the next page with matching records; 0 at end
   of extent.  The header peek is on the page bytes in place — no body
   copy, no header decode.  Deliberately page-bounded: merging across
   pages would fetch page N+1 before the per-row work on page N's rows,
   reordering the cache access sequence under small pools. *)
let rec cursor_next_page cur =
  if cur.c_page >= cur.c_pages then 0
  else begin
    cur.c_len <- 0;
    Heap_file.iter_page_spans cur.c_heap ~page:cur.c_page
      (fun rid buf pos _len ->
        if
          Obj_header.peek_class_id buf ~pos = cur.c_want
          && not (Obj_header.peek_deleted buf ~pos)
        then cursor_push cur rid);
    cur.c_page <- cur.c_page + 1;
    if cur.c_len = 0 then cursor_next_page cur else cur.c_len
  end

let cursor_rids cur = cur.c_rids

let scan_extent t ~cls f =
  let cur = scan_cursor t ~cls in
  let rec go () =
    let n = cursor_next_page cur in
    if n > 0 then begin
      for i = 0 to n - 1 do
        f cur.c_rids.(i)
      done;
      go ()
    end
  in
  go ()

let cardinality t ~cls =
  match String_table.find_opt t.cardinalities cls with Some r -> !r | None -> 0

let extent_pages t ~cls = Heap_file.page_count (class_file t ~cls)

(* Retiring a scratch file (a join's spill partition) its user is done
   with.  Its pages are released at the next pool drop, which must not pull
   a page the log can still read (a rollback's undo, recovery's redo):
   while the log holds touches, the file waits for the next checkpoint or
   discard.  A file created after the last checkpoint and truncated by a
   rollback or recovery is gone already. *)
let release_temp t heap =
  let file = Heap_file.file_id heap in
  if Wal.touched_pages (Transaction.wal t.txn) = 0 then
    Tb_storage.Disk.mark_dead (Tb_storage.Cache_stack.disk t.stack) ~file
  else t.retired <- file :: t.retired

let settle_retired t =
  let disk = Tb_storage.Cache_stack.disk t.stack in
  List.iter
    (fun file ->
      if file < Tb_storage.Disk.file_count disk then Tb_storage.Disk.mark_dead disk ~file)
    t.retired;
  t.retired <- []

(* Commit: force the commit record (standard mode), capture the catalog
   image the commit leads to, flush dirty pages, truncate the log, and
   publish the new checkpoint.  The capture happens between force and
   flush so a crash during the flush — a winner, its commit record already
   durable — can recover the catalog that matches the replayed pages. *)
let commit t =
  let wal = Transaction.wal t.txn in
  let disk = Tb_storage.Cache_stack.disk t.stack in
  (match Transaction.mode t.txn with
  | Transaction.Standard -> Wal.force wal
  | Transaction.Load_off -> Wal.discard wal disk);
  t.pending_ckpt <- Some (take_ckpt t);
  Tb_storage.Cache_stack.flush t.stack;
  Transaction.reset t.txn;
  Wal.checkpoint wal disk;
  (match t.pending_ckpt with Some c -> t.checkpoint <- c | None -> ());
  t.pending_ckpt <- None;
  settle_retired t;
  t.commit_seq <- t.commit_seq + 1;
  match t.on_commit with None -> () | Some f -> f ~seq:t.commit_seq

let create_index t ~name ~cls ~attr =
  (match Schema.attr_type t.schema ~cls ~attr with
  | Schema.TInt -> ()
  | _ -> invalid_arg "Database.create_index: only integer keys are supported");
  let id = t.next_index_id in
  t.next_index_id <- id + 1;
  let tree = Btree.create t.stack ~name:("__idx_" ^ name) in
  let ix = Index_def.make ~id ~name ~cls ~attr ~tree in
  let heap = class_file t ~cls in
  let class_id = Schema.class_id t.schema cls in
  let slot = Schema.attr_slot t.schema ~class_id ~attr in
  let since_commit = ref 0 in
  (* Pass 1: rewrite every object header and collect the (key, rid) run in
     scan order. *)
  let run = ref [] in
  scan_extent t ~cls (fun rid ->
      let page = Heap_file.locate heap rid in
      let buf = Page_layout.buffer page and pos = Heap_file.located_pos heap in
      let body = Obj_header.skip buf ~pos in
      run := (key_at buf ~body slot, rid) :: !run;
      (* Record membership in the object header.  Objects created without
         slot space must be rewritten with a bigger header — which is what
         made the authors' first post-load index build take hours and
         destroyed their physical organizations.  The attributes are
         copied as they lie. *)
      let fin = ref body in
      for _ = 1 to Schema.attr_count t.schema ~class_id do
        fin := Codec.skip buf ~pos:!fin
      done;
      let attrs = !fin - body in
      (* The header gains at most a slot count and a run of slots. *)
      let grown = 1 + (2 * Obj_header.default_slot_count) in
      let wb = wbuf t ~len:(body - pos + grown + attrs) in
      let room = Heap_file.frame_room in
      let wbody = Obj_header.copy_adding buf ~pos wb ~dpos:room id in
      Bytes.blit buf body wb wbody attrs;
      write_record t heap rid ~len:(wbody - room + attrs);
      (* An index build touches every object; under standard transactions
         it must commit periodically or hit the Section 3.2 "out of
         memory". *)
      incr since_commit;
      if Transaction.mode t.txn = Transaction.Standard && !since_commit >= 10_000
      then begin
        commit t;
        since_commit := 0
      end);
  (* Pass 2: build the tree.  The emergent tree shape (and with it every
     query-time charge) is a function of insertion order, so an unsorted run
     must be inserted in scan order exactly as before; when the scan order
     is already sorted — the clustered organizations of Section 2 — the
     per-entry inserts and the bulk append produce the same tree for the
     same charges, and the bulk path's host cost is O(n). *)
  let run = Array.of_list (List.rev !run) in
  let sorted =
    let ok = ref true in
    for i = 0 to Array.length run - 2 do
      let k1, r1 = run.(i) and k2, r2 = run.(i + 1) in
      let c = Int.compare k1 k2 in
      if c > 0 || (c = 0 && Rid.compare r1 r2 >= 0) then ok := false
    done;
    !ok
  in
  if sorted then Btree.bulk_add tree run
  else Array.iter (fun (key, rid) -> Btree.insert tree ~key ~rid) run;
  Index_def.refresh_stats ix;
  t.index_list <- t.index_list @ [ ix ];
  ix

let find_index t ~cls ~attr =
  List.find_opt
    (fun ix ->
      String.equal ix.Index_def.cls cls && String.equal ix.Index_def.attr attr)
    t.index_list

let indexes t = t.index_list

let analyze ?(buckets = 64) t =
  List.iter (fun ix -> Index_def.build_histogram ix ~buckets) t.index_list

(* Rollback: restore durable before-images from the log, drop the volatile
   working pages and client handles, rewind the catalog to the last
   checkpoint.  Transaction-off mode keeps no log, so there is nothing to
   roll back to — stolen pages may already be on disk (the price the paper's
   loading mode pays for its speed). *)
let rollback t =
  (match Transaction.mode t.txn with
  | Transaction.Load_off ->
      invalid_arg "Database.rollback: transaction-off mode keeps no log"
  | Transaction.Standard -> ());
  let undone = Transaction.abort t.txn t.stack in
  Handle_table.discard t.handles;
  install_ckpt t t.checkpoint;
  t.pending_ckpt <- None;
  settle_retired t;
  undone

(* {2 Transaction handles} *)

type txn_handle = { h_db : t; mutable resolved : bool }

let begin_txn t = { h_db = t; resolved = false }

let commit_txn h =
  if h.resolved then invalid_arg "Database.commit_txn: already resolved";
  h.resolved <- true;
  commit h.h_db

let abort_txn h =
  if h.resolved then invalid_arg "Database.abort_txn: already resolved";
  h.resolved <- true;
  ignore (rollback h.h_db : int)

let with_txn t f =
  let h = begin_txn t in
  match f t with
  | v ->
      commit_txn h;
      v
  | exception Tb_storage.Fault.Crash ->
      (* A crash is not an application error: nothing volatile survives to
         abort with.  Leave recovery to [crash_and_recover]. *)
      h.resolved <- true;
      raise Tb_storage.Fault.Crash
  | exception e ->
      if not h.resolved then abort_txn h;
      raise e

(* {2 Faults and crash recovery} *)

let set_fault t f =
  Tb_storage.Cache_stack.set_fault t.stack f;
  Wal.set_fault (Transaction.wal t.txn) f

let commit_seq t = t.commit_seq
let set_commit_hook t hook = t.on_commit <- hook

let durable_fingerprint t =
  Tb_storage.Disk.durable_digest (Tb_storage.Cache_stack.disk t.stack)

let durable_pages t =
  Tb_storage.Disk.total_pages (Tb_storage.Cache_stack.disk t.stack)

type recovery = {
  outcome : [ `Winner | `Loser ];
  torn_pages : int;
  redone : int;
  undone : int;
}

(* Restart after a crash.  Volatile state (both cache tiers, client
   handles) is gone by definition; the durable images plus
   the log are the whole truth.  The log holds at most one transaction
   (commits checkpoint it), so recovery is a single decision: if the
   commit record became durable, replay the after-images and install the
   catalog captured at force time; otherwise restore the before-images,
   truncate pages and files the loser created, and rewind the catalog.
   Checksum verification brackets the pass: torn pages found before must
   be healed, and none may survive. *)
let crash_and_recover t =
  let disk = Tb_storage.Cache_stack.disk t.stack in
  let wal = Transaction.wal t.txn in
  Tb_storage.Cache_stack.set_fault t.stack None;
  Wal.set_fault wal None;
  Tb_storage.Cache_stack.drop t.stack;
  Handle_table.discard t.handles;
  let torn = Tb_storage.Disk.verify disk in
  let outcome, redone, undone =
    if Wal.commit_durable wal then begin
      let redone = Wal.redo wal disk in
      (match t.pending_ckpt with
      | Some c -> t.checkpoint <- c
      | None ->
          failwith "Database.crash_and_recover: winner without a checkpoint");
      install_ckpt t t.checkpoint;
      t.commit_seq <- t.commit_seq + 1;
      (`Winner, redone, 0)
    end
    else begin
      let undone = Wal.undo wal disk in
      install_ckpt t t.checkpoint;
      (`Loser, 0, undone)
    end
  in
  Wal.discard wal disk;
  Transaction.reset t.txn;
  t.pending_ckpt <- None;
  settle_retired t;
  (match Tb_storage.Disk.verify disk with
  | [] -> ()
  | _ :: _ ->
      failwith "Database.crash_and_recover: torn page survived recovery");
  { outcome; torn_pages = List.length torn; redone; undone }

let cold_restart t =
  Handle_table.discard t.handles;
  Tb_storage.Cache_stack.clear t.stack
