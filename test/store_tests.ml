(* Tests for the object engine: values, codec, schema, headers, handles,
   big collections, B+-trees, transactions and the database façade. *)

open Tb_store
module Rid = Tb_storage.Rid

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fresh_sim () = Tb_sim.Sim.create (Tb_sim.Cost_model.scaled 100)

let fresh_stack ?(server = 64) ?(client = 256) () =
  let sim = fresh_sim () in
  let disk = Tb_storage.Disk.create sim in
  (sim, Tb_storage.Cache_stack.create sim disk ~server_pages:server ~client_pages:client)

(* --- Value --- *)

let test_value_field () =
  let v = Value.Tuple [ ("name", Value.String "x"); ("age", Value.Int 3) ] in
  check_int "field" 3 (Value.to_int (Value.field v "age"));
  check_bool "missing field raises" true
    (match Value.field v "zzz" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let v' = Value.set_field v "age" (Value.Int 4) in
  check_int "set_field" 4 (Value.to_int (Value.field v' "age"));
  check_string "other fields kept" "x" (Value.to_string_exn (Value.field v' "name"))

(* --- Codec --- *)

let value_gen =
  let open QCheck.Gen in
  let base =
    oneof
      [
        return Value.Nil;
        map (fun i -> Value.Int i) (int_range (-1_000_000) 1_000_000);
        map (fun f -> Value.Real f) (float_bound_inclusive 1e6);
        map (fun b -> Value.Bool b) bool;
        map (fun c -> Value.Char c) printable;
        map (fun s -> Value.String s) (string_size (int_range 0 40));
        map
          (fun (f, p, s) -> Value.Ref (Rid.make ~file:f ~page:p ~slot:s))
          (triple (int_range 0 100) (int_range 0 100000) (int_range 0 200));
      ]
  in
  let rec value n =
    if n <= 0 then base
    else
      frequency
        [
          (4, base);
          (1, map (fun xs -> Value.Set xs) (list_size (int_range 0 5) (value (n - 1))));
          (1, map (fun xs -> Value.List xs) (list_size (int_range 0 5) (value (n - 1))));
          ( 2,
            map
              (fun xs ->
                Value.Tuple (List.mapi (fun i v -> (Printf.sprintf "f%d" i, v)) xs))
              (list_size (int_range 0 5) (value (n - 1))) );
        ]
  in
  value 3

let codec_roundtrip =
  QCheck.Test.make ~name:"codec: roundtrip" ~count:500 (QCheck.make value_gen)
    (fun v ->
      let b = Codec.encode v in
      Bytes.length b = Codec.encoded_size v
      && Value.equal v (Codec.decode_exn b)
      && Codec.skip b ~pos:0 = Bytes.length b)

let test_codec_every_constructor () =
  (* One value per constructor — including [Big_set], which the generator
     above never produces — must round-trip, and [skip] must consume
     exactly the bytes [decode] would. *)
  let rid = Rid.make ~file:3 ~page:17 ~slot:5 in
  let values =
    [
      Value.Nil;
      Value.Int (-123_456);
      Value.Real 3.5;
      Value.Bool true;
      Value.Char 'x';
      Value.String "hello";
      Value.String "";
      Value.Ref rid;
      Value.Tuple [ ("a", Value.Int 1); ("b", Value.Set [ Value.Int 2 ]) ];
      Value.Tuple [];
      Value.Set [ Value.Int 1; Value.Nil ];
      Value.List [ Value.String ""; Value.Bool false ];
      Value.Big_set rid;
    ]
  in
  List.iter
    (fun v ->
      let b = Codec.encode v in
      check_bool "roundtrip" true (Value.equal v (Codec.decode_exn b));
      check_int "skip consumes the whole encoding" (Bytes.length b)
        (Codec.skip b ~pos:0))
    values

let test_codec_int_is_4_bytes () =
  (* The paper counts 4 bytes per integer, 8 per reference. *)
  check_int "int" 5 (Codec.encoded_size (Value.Int 42));
  check_int "ref" 9
    (Codec.encoded_size (Value.Ref (Rid.make ~file:0 ~page:0 ~slot:0)))

(* --- Schema --- *)

let derby_schema () =
  Schema.make
    ~classes:
      [
        {
          Schema.cls_name = "Provider";
          attrs =
            [
              ("name", Schema.TString);
              ("upin", Schema.TInt);
              ("clients", Schema.TSet (Schema.TRef "Patient"));
            ];
        };
        {
          Schema.cls_name = "Patient";
          attrs =
            [
              ("name", Schema.TString);
              ("mrn", Schema.TInt);
              ("primary_care_provider", Schema.TRef "Provider");
            ];
        };
      ]
    ~roots:
      [
        ("Providers", Schema.TSet (Schema.TRef "Provider"));
        ("Patients", Schema.TSet (Schema.TRef "Patient"));
      ]

let test_schema_validation () =
  check_bool "unknown ref rejected" true
    (match
       Schema.make
         ~classes:[ { Schema.cls_name = "A"; attrs = [ ("x", Schema.TRef "B") ] } ]
         ~roots:[]
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "duplicate class rejected" true
    (match
       Schema.make
         ~classes:
           [
             { Schema.cls_name = "A"; attrs = [] };
             { Schema.cls_name = "A"; attrs = [] };
           ]
         ~roots:[]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_schema_conforms () =
  let s = derby_schema () in
  let patient =
    Value.Tuple
      [
        ("name", Value.String "Daisy");
        ("mrn", Value.Int 7);
        ("primary_care_provider", Value.Ref (Rid.make ~file:0 ~page:0 ~slot:0));
      ]
  in
  let ty = Schema.TTuple (Schema.find_class s "Patient").Schema.attrs in
  check_bool "conforms" true (Schema.conforms s ty patient);
  check_bool "wrong type rejected" false
    (Schema.conforms s ty (Value.set_field patient "mrn" (Value.String "x")));
  check_bool "nil reference ok" true
    (Schema.conforms s ty (Value.set_field patient "primary_care_provider" Value.Nil));
  check_int "class ids distinct" 1
    (abs (Schema.class_id s "Provider" - Schema.class_id s "Patient"))

(* --- Object header --- *)

let test_header_roundtrip () =
  let h = Obj_header.create ~class_id:3 ~indexed:true in
  let h = Obj_header.add_index h 5 in
  let h = Obj_header.add_index h 9 in
  let decoded, len = Obj_header.decode (Obj_header.encode h) ~pos:0 in
  check_int "consumed" (Obj_header.encoded_size h) len;
  check_int "class" 3 (Obj_header.class_id decoded);
  Alcotest.(check (list int)) "indexes" [ 5; 9 ] (Obj_header.indexes decoded)

let test_header_size_depends_on_slots () =
  let plain = Obj_header.create ~class_id:0 ~indexed:false in
  let slotted = Obj_header.create ~class_id:0 ~indexed:true in
  check_int "unindexed: 3 bytes" 3 (Obj_header.encoded_size plain);
  check_int "indexed: room for 8 indexes" (4 + 16) (Obj_header.encoded_size slotted);
  check_bool "add_index without slots rejected" true
    (match Obj_header.add_index plain 1 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_header_slot_growth () =
  let h = ref (Obj_header.create ~class_id:0 ~indexed:true) in
  for i = 0 to 9 do
    h := Obj_header.add_index !h i
  done;
  check_int "10 memberships" 10 (List.length (Obj_header.indexes !h));
  let h = Obj_header.remove_index !h 4 in
  check_int "one removed" 9 (List.length (Obj_header.indexes h));
  (* idempotent add *)
  let h = Obj_header.add_index h 5 in
  check_int "re-add is idempotent" 9 (List.length (Obj_header.indexes h))

(* The write path builds headers in place (Obj_header.write_fresh,
   add_index_at, copy_adding): their bytes must be exactly the encoding
   of the header values they stand for.  [ids] become memberships, every
   third one removed again to leave holes; [idx] is the index added. *)
let header_in_place_prop =
  QCheck.Test.make ~count:300 ~name:"header: in-place writes encode as header values"
    QCheck.(
      make
        ~print:Print.(quad int (list int) int bool)
        Gen.(
          quad (int_range 0 40) (list_size (int_range 0 20) (int_range 0 30))
            (int_range 0 30) bool))
    (fun (class_id, ids, idx, deleted) ->
      let ids = List.sort_uniq Int.compare ids in
      let n = List.length ids in
      let slotted = n > 0 || deleted in
      let slots = if slotted then 8 * max 1 ((n + 7) / 8) else 0 in
      let expected =
        List.fold_left Obj_header.add_index
          (Obj_header.create ~class_id ~indexed:slotted)
          ids
      in
      let b = Bytes.make 128 '?' in
      let fin = Obj_header.write_fresh b ~pos:5 ~class_id ~slots in
      List.iter (Obj_header.add_index_at b ~pos:5) ids;
      let fresh_ok =
        Bytes.equal (Bytes.sub b 5 (fin - 5)) (Obj_header.encode expected)
      in
      let h =
        List.fold_left
          (fun h (i, id) -> if i mod 3 = 2 then Obj_header.remove_index h id else h)
          expected
          (List.mapi (fun i id -> (i, id)) ids)
      in
      let h = Obj_header.set_deleted h deleted in
      let src = Obj_header.encode h in
      let dst = Bytes.make 128 '?' in
      let fin = Obj_header.copy_adding src ~pos:0 dst ~dpos:3 idx in
      let grown = Obj_header.encode (Obj_header.add_index (Obj_header.with_slots h) idx) in
      fresh_ok && Bytes.equal (Bytes.sub dst 3 (fin - 3)) grown)

(* --- Handle table --- *)

(* A miss goes reserve -> load -> install; the dummy loads an integer
   record alone on a blank page, and an update re-points it at another. *)
let int_page v =
  let p = Tb_storage.Page_layout.create ~size:64 in
  ignore (Tb_storage.Page_layout.insert p (Codec.encode (Value.Int v)));
  p

let point_dummy slab h v =
  let page = int_page v in
  Handle.repoint slab h ~class_id:0 ~page ~slot:0 ~delta:0
    ~body:(Tb_storage.Page_layout.record_offset page 0)

let dummy_value slab h =
  let buf = Handle.packed_buf slab h in
  Codec.decode_value buf ~pos:(Handle.packed_body slab h)

let acquire_dummy tbl rid =
  let h = Handle_table.find_resident tbl rid in
  if (h :> int) >= 0 then Handle_table.acquire tbl h
  else begin
    Handle_table.reserve tbl;
    let page = int_page 1 in
    Handle_table.install tbl
      (Handle.alloc_packed (Handle_table.slab tbl) ~rid ~class_id:0 ~page ~slot:0
         ~delta:0 ~body:(Tb_storage.Page_layout.record_offset page 0))
  end

let test_handles_refcount_and_zombies () =
  let sim = fresh_sim () in
  let tbl = Handle_table.create sim ~kind:Tb_sim.Cost_model.Fat ~zombie_limit:2 in
  let rid i = Rid.make ~file:0 ~page:i ~slot:0 in
  let h0 = acquire_dummy tbl (rid 0) in
  check_int "one alloc" 1 sim.Tb_sim.Sim.counters.Tb_sim.Counters.handle_allocs;
  let h0' = acquire_dummy tbl (rid 0) in
  check_bool "same handle" true (h0 = h0');
  check_int "hit counted" 1 sim.Tb_sim.Sim.counters.Tb_sim.Counters.handle_hits;
  Handle_table.unreference tbl h0;
  Handle_table.unreference tbl h0';
  (* Zombie: resurrecting is free. *)
  let h0'' = acquire_dummy tbl (rid 0) in
  check_int "still one alloc" 1 sim.Tb_sim.Sim.counters.Tb_sim.Counters.handle_allocs;
  Handle_table.unreference tbl h0'';
  (* Push enough zombies to force real frees. *)
  for i = 1 to 5 do
    let h = acquire_dummy tbl (rid i) in
    Handle_table.unreference tbl h
  done;
  check_bool "delayed frees happened" true
    (sim.Tb_sim.Sim.counters.Tb_sim.Counters.handle_frees > 0);
  check_bool "resident bounded" true (Handle_table.resident_count tbl <= 4)

let test_handles_double_unref_rejected () =
  let sim = fresh_sim () in
  let tbl = Handle_table.create sim ~kind:Tb_sim.Cost_model.Fat ~zombie_limit:8 in
  let h = acquire_dummy tbl (Rid.make ~file:0 ~page:0 ~slot:0) in
  Handle_table.unreference tbl h;
  check_bool "double unref raises" true
    (match Handle_table.unreference tbl h with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_handles_memory_accounting () =
  let sim = fresh_sim () in
  let tbl = Handle_table.create sim ~kind:Tb_sim.Cost_model.Fat ~zombie_limit:100 in
  let before = Tb_sim.Sim.working_bytes sim in
  let hs =
    List.init 10 (fun i ->
        acquire_dummy tbl (Rid.make ~file:0 ~page:i ~slot:0))
  in
  check_int "60 bytes per fat handle" (before + 600) (Tb_sim.Sim.working_bytes sim);
  List.iter (Handle_table.unreference tbl) hs;
  Handle_table.flush tbl;
  check_int "flush releases" before (Tb_sim.Sim.working_bytes sim)

let test_compact_handles_cheaper () =
  let run kind =
    let sim = fresh_sim () in
    let tbl = Handle_table.create sim ~kind ~zombie_limit:0 in
    for i = 1 to 1000 do
      let h =
        acquire_dummy tbl (Rid.make ~file:0 ~page:i ~slot:0)
      in
      Handle_table.unreference tbl h
    done;
    Tb_sim.Sim.elapsed_s sim
  in
  check_bool "fat handles dominate CPU" true
    (run Tb_sim.Cost_model.Fat > 5.0 *. run Tb_sim.Cost_model.Compact)

(* --- Handle table against a model ---

   The model is the table's earlier implementation: a hash table from Rid
   to a refcounted record plus a FIFO queue of zombies that keeps stale
   entries, charging a second simulator in the same order.  After every
   step the counters, simulated memory, clock bits and resident set
   ([find_resident] of every Rid in the pool) of the two must agree. *)

module Model = struct
  type h = { rid : Rid.t; mutable rc : int; mutable value : int }

  type t = {
    sim : Tb_sim.Sim.t;
    tbl : (int, h) Hashtbl.t;
    zombies : Rid.t Queue.t;
    limit : int;
  }

  let kind = Tb_sim.Cost_model.Fat
  let bytes t = Tb_sim.Cost_model.handle_bytes t.sim.Tb_sim.Sim.cost kind

  let create sim ~limit =
    { sim; tbl = Hashtbl.create 16; zombies = Queue.create (); limit }

  let acquire t (rid : Rid.t) =
    match Hashtbl.find_opt t.tbl (rid :> int) with
    | Some h ->
        Tb_sim.Sim.charge_handle_hit t.sim;
        h.rc <- h.rc + 1;
        h
    | None ->
        Tb_sim.Sim.charge_handle_alloc t.sim kind;
        Tb_sim.Sim.claim_bytes t.sim (bytes t);
        let h = { rid; rc = 1; value = 1 } in
        Hashtbl.replace t.tbl (rid :> int) h;
        h

  let unreference t h =
    h.rc <- h.rc - 1;
    if h.rc = 0 then begin
      Queue.push h.rid t.zombies;
      while Queue.length t.zombies > t.limit do
        let rid : Rid.t = Queue.pop t.zombies in
        match Hashtbl.find_opt t.tbl (rid :> int) with
        | Some z when z.rc = 0 ->
            Tb_sim.Sim.charge_handle_free t.sim kind;
            Tb_sim.Sim.release_bytes t.sim (bytes t);
            Hashtbl.remove t.tbl (rid :> int)
        | Some _ | None -> ()
      done
    end

  let drop t ~charge =
    Hashtbl.iter
      (fun _ _ ->
        if charge then Tb_sim.Sim.charge_handle_free t.sim kind;
        Tb_sim.Sim.release_bytes t.sim (bytes t))
      t.tbl;
    Hashtbl.reset t.tbl;
    Queue.clear t.zombies
end

type handle_op =
  | Acquire of int  (* index into the Rid pool *)
  | Unref of int  (* index into the held pins, modulo their number *)
  | Update of int * int
  | Flush
  | Discard

(* [count] Rids whose lookups in a fresh table start probing at [cell]. *)
let colliding_rids ~count ~cell =
  let fresh = Handle_table.create (fresh_sim ()) ~kind:Model.kind ~zombie_limit:0 in
  let rec go i acc n =
    if n = 0 then List.rev acc
    else
      let rid = Rid.make ~file:(i / 60_000) ~page:(i mod 60_000) ~slot:(i mod 7) in
      if Handle_table.probe_start fresh rid = cell then go (i + 1) (rid :: acc) (n - 1)
      else go (i + 1) acc n
  in
  go 0 [] count

(* Most of the pool collides: a run homed on one cell, and a run homed on
   the last cell, whose probes wrap around to the first. *)
let rid_pool =
  lazy
    (Array.of_list
       (colliding_rids ~count:6 ~cell:17
       @ colliding_rids ~count:6 ~cell:4095
       @ List.init 6 (fun i -> Rid.make ~file:2 ~page:i ~slot:i)))

let handle_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (6, map (fun i -> Acquire i) (int_bound 17));
      (5, map (fun i -> Unref i) (int_bound 100));
      (2, map2 (fun i v -> Update (i, v)) (int_bound 17) (int_bound 1000));
      (1, return Flush);
      (1, return Discard);
    ]

let show_handle_op = function
  | Acquire i -> Printf.sprintf "acquire %d" i
  | Unref i -> Printf.sprintf "unref %d" i
  | Update (i, v) -> Printf.sprintf "update %d %d" i v
  | Flush -> "flush"
  | Discard -> "discard"

let run_against_model ~limit ops =
  let pool = Lazy.force rid_pool in
  let sim = fresh_sim () and msim = fresh_sim () in
  let tbl = Handle_table.create sim ~kind:Model.kind ~zombie_limit:limit in
  let model = Model.create msim ~limit in
  let slab = Handle_table.slab tbl in
  let held = ref [] in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let check step =
    let pp s = Format.asprintf "%a" Tb_sim.Counters.pp s.Tb_sim.Sim.counters in
    if pp sim <> pp msim then fail "%s: counters differ" step;
    if Tb_sim.Sim.working_bytes sim <> Tb_sim.Sim.working_bytes msim then
      fail "%s: working bytes differ" step;
    let bits f s = Int64.bits_of_float (f s.Tb_sim.Sim.clock) in
    if bits Tb_sim.Clock.now_ms sim <> bits Tb_sim.Clock.now_ms msim
       || bits Tb_sim.Clock.work_ms sim <> bits Tb_sim.Clock.work_ms msim
    then fail "%s: clock bits differ" step;
    if Handle_table.resident_count tbl <> Hashtbl.length model.Model.tbl then
      fail "%s: resident count differs" step;
    Array.iter
      (fun rid ->
        let h = Handle_table.find_resident tbl rid in
        match Hashtbl.find_opt model.Model.tbl (rid :> int) with
        | None -> if (h :> int) >= 0 then fail "%s: %a resident" step Rid.pp rid
        | Some m ->
            if (h :> int) < 0 then fail "%s: %a not resident" step Rid.pp rid;
            if not (Rid.equal (Handle.rid slab h) rid) then fail "%s: wrong rid" step;
            if Handle.refcount slab h <> m.Model.rc then fail "%s: refcount" step;
            if not (Value.equal (dummy_value slab h) (Value.Int m.Model.value)) then
              fail "%s: value" step)
      pool
  in
  List.iter
    (fun op ->
      (match op with
      | Acquire i ->
          let h = acquire_dummy tbl pool.(i) in
          let m = Model.acquire model pool.(i) in
          (* A fresh dummy holds 1; a resident one keeps its value. *)
          held := (h, m) :: !held
      | Unref i -> (
          match !held with
          | [] -> ()
          | l ->
              let k = i mod List.length l in
              let h, m = List.nth l k in
              held := List.filteri (fun j _ -> j <> k) l;
              Handle_table.unreference tbl h;
              Model.unreference model m)
      | Update (i, v) -> (
          let h = Handle_table.find_resident tbl pool.(i) in
          match Hashtbl.find_opt model.Model.tbl (pool.(i) :> int) with
          | Some m ->
              point_dummy slab h v;
              m.Model.value <- v
          | None -> if (h :> int) >= 0 then fail "update: resident only in the table")
      | Flush ->
          Handle_table.flush tbl;
          Model.drop model ~charge:true;
          held := []
      | Discard ->
          Handle_table.discard tbl;
          Model.drop model ~charge:false;
          held := []);
      check (show_handle_op op))
    ops;
  true

let handles_vs_model limit =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "handles: table agrees with the model, zombie limit %d" limit)
    QCheck.(make ~print:(Print.list show_handle_op) Gen.(list_size (int_range 1 120) handle_op_gen))
    (run_against_model ~limit)

(* Rids homed on two neighbouring cells, and on the first two cells and
   the last two, inserted in that order so that the last cells' runs wrap
   around past the first cells' entries, then deleted in a shuffled
   order: every deletion shifts a probe run back, across the wrap too,
   and every survivor must still be found. *)
let test_handles_collision_stress () =
  let sim = fresh_sim () in
  let tbl = Handle_table.create sim ~kind:Model.kind ~zombie_limit:0 in
  let rids =
    Array.of_list
      (List.concat_map
         (fun cell -> colliding_rids ~count:30 ~cell)
         [ 100; 101; 0; 1; 4094; 4095 ])
  in
  let hs = Array.map (acquire_dummy tbl) rids in
  let n = Array.length rids in
  let order = Array.init n Fun.id in
  let rng = Random.State.make [| 7 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let gone = Array.make n false in
  Array.iteri
    (fun step k ->
      Handle_table.unreference tbl hs.(k);
      gone.(k) <- true;
      check_int "resident count" (n - step - 1) (Handle_table.resident_count tbl);
      Array.iteri
        (fun i rid ->
          let h = Handle_table.find_resident tbl rid in
          if gone.(i) then check_bool "deleted rid absent" true ((h :> int) < 0)
          else
            check_bool "survivor found" true
              ((h :> int) >= 0 && Rid.equal (Handle.rid (Handle_table.slab tbl) h) rid))
        rids)
    order;
  check_int "every handle freed" n
    sim.Tb_sim.Sim.counters.Tb_sim.Counters.handle_frees

let test_handles_freed_slot_rejected () =
  let tbl = Handle_table.create (fresh_sim ()) ~kind:Model.kind ~zombie_limit:0 in
  let slab = Handle_table.slab tbl in
  let h = acquire_dummy tbl (Rid.make ~file:0 ~page:3 ~slot:1) in
  Handle_table.unreference tbl h;
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check_bool "rid of a freed slot raises" true (raises (fun () -> ignore (Handle.rid slab h)));
  check_bool "value of a freed slot raises" true
    (raises (fun () -> ignore (Handle.packed_buf slab h)));
  check_bool "unreferencing a freed slot raises" true
    (raises (fun () -> Handle_table.unreference tbl h));
  check_bool "Handle.none is rejected" true
    (raises (fun () -> ignore (Handle.rid slab Handle.none)))

(* --- Big collections --- *)

let test_big_collection_roundtrip () =
  let _, stack = fresh_stack () in
  let heap = Tb_storage.Heap_file.create stack ~name:"coll" in
  let elems = List.init 1000 (fun i -> Value.Ref (Rid.make ~file:1 ~page:i ~slot:0)) in
  let head = Big_collection.create heap elems in
  check_int "length" 1000 (Big_collection.length heap head);
  let back = Big_collection.to_list heap head in
  check_bool "order preserved" true (List.for_all2 Value.equal elems back);
  check_bool "spilled across several chunks/pages" true
    (Tb_storage.Heap_file.page_count heap >= 2)

let test_big_collection_empty () =
  let _, stack = fresh_stack () in
  let heap = Tb_storage.Heap_file.create stack ~name:"coll" in
  let head = Big_collection.create heap [] in
  check_int "empty" 0 (Big_collection.length heap head)

(* --- B+-tree --- *)

let test_btree_basic () =
  let _, stack = fresh_stack () in
  let tree = Btree.create stack ~name:"t" in
  let rid i = Rid.make ~file:9 ~page:i ~slot:0 in
  for i = 0 to 999 do
    Btree.insert tree ~key:(i * 7 mod 1000) ~rid:(rid i)
  done;
  check_int "count" 1000 (Btree.entry_count tree);
  Btree.check_invariants tree;
  (* Every key from the permutation is present exactly once. *)
  let found = Btree.search tree ~key:0 in
  check_int "single match" 1 (List.length found);
  check_bool "bounds" true (Btree.key_bounds tree = Some (0, 999))

let test_btree_duplicates () =
  let _, stack = fresh_stack () in
  let tree = Btree.create stack ~name:"t" in
  for i = 0 to 499 do
    Btree.insert tree ~key:(i mod 5) ~rid:(Rid.make ~file:0 ~page:i ~slot:0)
  done;
  Btree.check_invariants tree;
  check_int "100 rids under key 3" 100 (List.length (Btree.search tree ~key:3));
  (* duplicate (key, rid) ignored *)
  Btree.insert tree ~key:3 ~rid:(Rid.make ~file:0 ~page:3 ~slot:0);
  check_int "no duplicate entry" 500 (Btree.entry_count tree)

let test_btree_range () =
  let _, stack = fresh_stack () in
  let tree = Btree.create stack ~name:"t" in
  for i = 0 to 999 do
    Btree.insert tree ~key:i ~rid:(Rid.make ~file:0 ~page:i ~slot:0)
  done;
  let seen = ref [] in
  Btree.range tree ~lo:100 ~hi:200 (fun k _ -> seen := k :: !seen);
  check_int "100 keys in [100,200)" 100 (List.length !seen);
  check_int "first" 100 (List.hd (List.rev !seen));
  check_int "last" 199 (List.hd !seen);
  let all = ref 0 in
  Btree.range tree (fun _ _ -> incr all);
  check_int "unbounded range sees all" 1000 !all

let test_btree_delete () =
  let _, stack = fresh_stack () in
  let tree = Btree.create stack ~name:"t" in
  let rid i = Rid.make ~file:0 ~page:i ~slot:0 in
  for i = 0 to 99 do
    Btree.insert tree ~key:i ~rid:(rid i)
  done;
  check_bool "delete hits" true (Btree.delete tree ~key:50 ~rid:(rid 50));
  check_bool "second delete misses" false (Btree.delete tree ~key:50 ~rid:(rid 50));
  check_int "count" 99 (Btree.entry_count tree);
  check_int "gone" 0 (List.length (Btree.search tree ~key:50));
  Btree.check_invariants tree

let test_btree_mass_delete_rebalances () =
  (* Grow a three-level tree, then delete most of it: occupancy, ordering
     and the leaf chain must survive every merge/borrow, and the height
     must shrink back. *)
  let _, stack = fresh_stack ~server:256 ~client:1024 () in
  let tree = Btree.create stack ~name:"t" in
  let n = 30_000 in
  let rid i = Rid.make ~file:0 ~page:i ~slot:0 in
  for i = 0 to n - 1 do
    Btree.insert tree ~key:(i * 17 mod n) ~rid:(rid i)
  done;
  Btree.check_invariants tree;
  (* Delete 90% in a scattered order. *)
  for i = 0 to n - 1 do
    if i mod 10 <> 3 then
      ignore (Btree.delete tree ~key:(i * 17 mod n) ~rid:(rid i))
  done;
  Btree.check_invariants tree;
  check_int "10% left" (n / 10) (Btree.entry_count tree);
  (* Every survivor is still findable, every deleted key gone. *)
  for i = 0 to (n / 100) - 1 do
    let key = i * 17 mod n in
    let found = List.exists (Rid.equal (rid i)) (Btree.search tree ~key) in
    check_bool (Printf.sprintf "entry %d presence" i) (i mod 10 = 3) found
  done;
  (* Empty it out completely. *)
  for i = 0 to n - 1 do
    ignore (Btree.delete tree ~key:(i * 17 mod n) ~rid:(rid i))
  done;
  check_int "empty" 0 (Btree.entry_count tree);
  Btree.check_invariants tree;
  check_bool "no keys left" true (Btree.key_bounds tree = None);
  (* And it still works afterwards. *)
  Btree.insert tree ~key:5 ~rid:(rid 1);
  check_int "reusable" 1 (List.length (Btree.search tree ~key:5))

let btree_delete_model_prop =
  QCheck.Test.make ~name:"btree: delete agrees with a model under churn"
    ~count:15
    QCheck.(pair (int_range 1 2000) (int_range 0 10_000))
    (fun (n, seed) ->
      let _, stack = fresh_stack ~server:128 ~client:512 () in
      let tree = Btree.create stack ~name:"t" in
      let rng = Tb_sim.Rng.create seed in
      let module S = Set.Make (Int) in
      let live = ref S.empty in
      for i = 0 to n - 1 do
        Btree.insert tree ~key:i ~rid:(Rid.make ~file:0 ~page:i ~slot:0);
        live := S.add i !live
      done;
      for _ = 1 to n do
        let k = Tb_sim.Rng.int rng n in
        if Tb_sim.Rng.int rng 2 = 1 then begin
          ignore (Btree.delete tree ~key:k ~rid:(Rid.make ~file:0 ~page:k ~slot:0));
          live := S.remove k !live
        end
      done;
      Btree.check_invariants tree;
      Btree.entry_count tree = S.cardinal !live
      && S.for_all (fun k -> Btree.search tree ~key:k <> []) !live)

let test_btree_clustering_factor () =
  let _, stack = fresh_stack () in
  let sequential = Btree.create stack ~name:"seq" in
  for i = 0 to 2999 do
    Btree.insert sequential ~key:i ~rid:(Rid.make ~file:0 ~page:(i / 50) ~slot:(i mod 50))
  done;
  check_bool "creation-order key is clustered" true
    (Btree.clustering_factor sequential > 0.95);
  let rng = Tb_sim.Rng.create 5 in
  let random = Btree.create stack ~name:"rand" in
  let perm = Tb_sim.Rng.permutation rng 3000 in
  for i = 0 to 2999 do
    Btree.insert random ~key:perm.(i)
      ~rid:(Rid.make ~file:0 ~page:(i / 50) ~slot:(i mod 50))
  done;
  check_bool "random key is unclustered" true (Btree.clustering_factor random < 0.6)

let btree_model_prop =
  QCheck.Test.make ~name:"btree agrees with a sorted-map model" ~count:60
    QCheck.(
      small_list (pair (int_range 0 50) (int_range 0 1000)))
    (fun ops ->
      let _, stack = fresh_stack () in
      let tree = Btree.create stack ~name:"t" in
      let module M = Map.Make (Int) in
      let model = ref M.empty in
      List.iter
        (fun (key, page) ->
          let rid = Rid.make ~file:0 ~page ~slot:0 in
          Btree.insert tree ~key ~rid;
          model :=
            M.update key
              (function
                | None -> Some [ rid ]
                | Some rids ->
                    if List.exists (Rid.equal rid) rids then Some rids
                    else Some (rid :: rids))
              !model)
        ops;
      Btree.check_invariants tree;
      M.for_all
        (fun key rids ->
          let got = Btree.search tree ~key in
          List.length got = List.length rids
          && List.for_all (fun r -> List.exists (Rid.equal r) got) rids)
        !model)

let test_btree_index_pages_cost_ios () =
  let sim, stack = fresh_stack ~server:4 ~client:8 () in
  let tree = Btree.create stack ~name:"t" in
  for i = 0 to 9999 do
    Btree.insert tree ~key:i ~rid:(Rid.make ~file:0 ~page:i ~slot:0)
  done;
  check_bool "tree spans many pages" true (Btree.page_count tree > 10);
  Tb_storage.Cache_stack.clear stack;
  Tb_sim.Sim.reset sim;
  let n = ref 0 in
  Btree.range tree (fun _ _ -> incr n);
  check_int "full scan" 10000 !n;
  check_bool "cold index scan reads leaf pages" true
    (sim.Tb_sim.Sim.counters.Tb_sim.Counters.disk_reads > 10)

(* --- Histograms --- *)

let test_histogram_matches_uniform_on_uniform_keys () =
  let _, stack = fresh_stack () in
  let tree = Btree.create stack ~name:"t" in
  for i = 0 to 9_999 do
    Btree.insert tree ~key:i ~rid:(Rid.make ~file:0 ~page:i ~slot:0)
  done;
  let ix = Index_def.make ~id:0 ~name:"t" ~cls:"C" ~attr:"a" ~tree in
  Index_def.refresh_stats ix;
  let uniform = Index_def.key_window ix.Index_def.keys ~lo:None ~hi:(Some 2_500) in
  Index_def.build_histogram ix ~buckets:32;
  let hist = Index_def.key_window ix.Index_def.keys ~lo:None ~hi:(Some 2_500) in
  check_bool "both near 0.25" true
    (abs_float (uniform -. 0.25) < 0.01 && abs_float (hist -. 0.25) < 0.01)

let test_histogram_beats_uniform_on_skew () =
  (* 90% of keys in [0, 1000), a thin tail to 100_000: the uniform model is
     off by an order of magnitude, the histogram is not. *)
  let _, stack = fresh_stack () in
  let tree = Btree.create stack ~name:"t" in
  for i = 0 to 8_999 do
    Btree.insert tree ~key:(i mod 1_000) ~rid:(Rid.make ~file:0 ~page:i ~slot:0)
  done;
  for i = 0 to 999 do
    Btree.insert tree ~key:(1_000 + (i * 99)) ~rid:(Rid.make ~file:1 ~page:i ~slot:0)
  done;
  let ix = Index_def.make ~id:0 ~name:"t" ~cls:"C" ~attr:"a" ~tree in
  Index_def.refresh_stats ix;
  (* True selectivity of key < 1000 is 0.9. *)
  let uniform = Index_def.key_window ix.Index_def.keys ~lo:None ~hi:(Some 1_000) in
  Index_def.build_histogram ix ~buckets:512;
  let hist = Index_def.key_window ix.Index_def.keys ~lo:None ~hi:(Some 1_000) in
  check_bool "uniform badly off" true (uniform < 0.3);
  check_bool "histogram close to truth" true (abs_float (hist -. 0.9) < 0.05)

(* --- Transactions --- *)

let test_txn_out_of_memory () =
  let sim = fresh_sim () in
  let txn = Transaction.create sim Transaction.Standard ~uncommitted_limit:100 in
  check_bool "limit enforced" true
    (match
       for _ = 1 to 200 do
         Transaction.on_write txn ~bytes:64
       done
     with
    | exception Transaction.Out_of_memory -> true
    | () -> false)

let test_txn_load_mode_free () =
  let sim = fresh_sim () in
  let txn = Transaction.create sim Transaction.Load_off ~uncommitted_limit:10 in
  for _ = 1 to 1000 do
    Transaction.on_write txn ~bytes:256
  done;
  check_int "no log writes" 0 sim.Tb_sim.Sim.counters.Tb_sim.Counters.disk_writes;
  let sim2 = fresh_sim () in
  let txn2 = Transaction.create sim2 Transaction.Standard ~uncommitted_limit:10_000 in
  for _ = 1 to 1000 do
    Transaction.on_write txn2 ~bytes:256
  done;
  check_bool "standard mode logs" true
    (sim2.Tb_sim.Sim.counters.Tb_sim.Counters.disk_writes > 50)

(* --- Database --- *)

let mk_db ?(txn_mode = Transaction.Load_off) () =
  let sim = fresh_sim () in
  let db =
    Database.create sim ~schema:(derby_schema ()) ~server_pages:64
      ~client_pages:256 ~txn_mode ()
  in
  let pf = Database.new_file db ~name:"providers" in
  let qf = Database.new_file db ~name:"patients" in
  Database.bind_class db ~cls:"Provider" pf;
  Database.bind_class db ~cls:"Patient" qf;
  (sim, db)

let provider ?(clients = []) name upin =
  Value.Tuple
    [
      ("name", Value.String name);
      ("upin", Value.Int upin);
      ("clients", Value.Set clients);
    ]

let patient name mrn pcp =
  Value.Tuple
    [
      ("name", Value.String name);
      ("mrn", Value.Int mrn);
      ("primary_care_provider", pcp);
    ]

let test_db_insert_and_read () =
  let _, db = mk_db () in
  let prid = Database.insert_object db ~cls:"Provider" (provider "Asterix" 1) in
  let parid =
    Database.insert_object db ~cls:"Patient" (patient "Obelix" 14 (Value.Ref prid))
  in
  let _, v = Database.read_object db parid in
  check_int "mrn" 14 (Value.to_int (Value.field v "mrn"));
  check_bool "pcp ref" true
    (Rid.equal prid (Value.to_ref (Value.field v "primary_care_provider")));
  let h = Database.acquire db parid in
  check_string "get_att through handle" "Obelix"
    (Value.to_string_exn (Database.get_att db h "name"));
  check_string "class name" "Patient" (Database.class_name db h);
  Database.unref db h

let test_db_lazy_handle_matches_read_object () =
  (* A Handle decodes attributes on demand; whatever the access order, what
     it returns must agree with the eager [read_object] decode. *)
  let _, db = mk_db () in
  let clients = List.init 3 (fun i -> Value.Ref (Rid.make ~file:1 ~page:i ~slot:0)) in
  let prid = Database.insert_object db ~cls:"Provider" (provider ~clients "Lazy" 42) in
  let _, whole = Database.read_object db prid in
  let h = Database.acquire db prid in
  (* Partial decode: touch one attribute, repeatedly.  The packed repr
     re-decodes from the pinned page bytes on every access, so the
     guarantee is value identity, not physical sharing. *)
  check_int "upin" 42 (Value.to_int (Database.get_att db h "upin"));
  check_bool "repeat access returns the same value" true
    (Value.equal (Database.get_att db h "upin") (Database.get_att db h "upin"));
  (* Slot-compiled access sees the same attribute. *)
  let slot = Database.attr_slot db ~cls:"Provider" "name" in
  check_string "slot access" "Lazy"
    (Value.to_string_exn (Database.get_att_slot db h slot));
  (* Every attribute agrees with the eager decoder... *)
  (match whole with
  | Value.Tuple fields ->
      List.iter
        (fun (name, v) ->
          check_bool ("attr " ^ name) true
            (Value.equal v (Database.get_att db h name)))
        fields
  | _ -> Alcotest.fail "expected tuple");
  (* ...and so does the fully materialized view. *)
  check_bool "handle_value equals read_object" true
    (Value.equal whole (Database.handle_value db h));
  Database.unref db h

let test_db_conformance_enforced () =
  let _, db = mk_db () in
  check_bool "bad value rejected" true
    (match Database.insert_object db ~cls:"Provider" (Value.Int 3) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_db_large_set_spills () =
  let _, db = mk_db () in
  let clients = List.init 1000 (fun i -> Value.Ref (Rid.make ~file:1 ~page:i ~slot:0)) in
  let prid = Database.insert_object db ~cls:"Provider" (provider ~clients "Big" 1) in
  let _, v = Database.read_object db prid in
  (match Value.field v "clients" with
  | Value.Big_set _ -> ()
  | _ -> Alcotest.fail "expected spilled collection");
  check_int "iter_set sees all elements" 1000
    (Database.set_length db (Value.field v "clients"));
  (* A small set stays inline. *)
  let small =
    Database.insert_object db ~cls:"Provider"
      (provider ~clients:[ Value.Ref (Rid.make ~file:1 ~page:0 ~slot:0) ] "Small" 2)
  in
  let _, v = Database.read_object db small in
  match Value.field v "clients" with
  | Value.Set _ -> ()
  | _ -> Alcotest.fail "expected inline collection"

let test_db_scan_extent_filters_classes () =
  let sim = fresh_sim () in
  let db =
    Database.create sim ~schema:(derby_schema ()) ~server_pages:64
      ~client_pages:256 ~txn_mode:Transaction.Load_off ()
  in
  (* Shared file: the random/composition organizations. *)
  let shared = Database.new_file db ~name:"objects" in
  Database.bind_class db ~cls:"Provider" shared;
  Database.bind_class db ~cls:"Patient" shared;
  for i = 0 to 49 do
    let prid = Database.insert_object db ~cls:"Provider" (provider "p" i) in
    ignore
      (Database.insert_object db ~cls:"Patient" (patient "q" i (Value.Ref prid)))
  done;
  let n = ref 0 in
  Database.scan_extent db ~cls:"Patient" (fun _ -> incr n);
  check_int "only patients" 50 !n;
  check_int "cardinality" 50 (Database.cardinality db ~cls:"Provider")

let test_db_index_maintenance () =
  let _, db = mk_db () in
  let rids =
    List.init 100 (fun i ->
        Database.insert_object db ~cls:"Patient"
          (patient (Printf.sprintf "p%d" i) i Value.Nil))
  in
  let ix = Database.create_index db ~name:"mrn" ~cls:"Patient" ~attr:"mrn" in
  check_int "indexed all" 100 (Btree.entry_count ix.Index_def.tree);
  check_bool "creation-order key clustered" true (Index_def.is_clustered ix);
  (* Inserts after creation are indexed automatically. *)
  let extra =
    Database.insert_object db ~cls:"Patient" (patient "late" 1000 Value.Nil)
  in
  check_bool "new object findable" true
    (List.exists (Rid.equal extra) (Btree.search ix.Index_def.tree ~key:1000));
  (* Updates move the entry. *)
  let first = List.hd rids in
  Database.update_object db first (patient "p0" 777 Value.Nil);
  check_bool "old key gone" true
    (not (List.exists (Rid.equal first) (Btree.search ix.Index_def.tree ~key:0)));
  check_bool "new key present" true
    (List.exists (Rid.equal first) (Btree.search ix.Index_def.tree ~key:777));
  (* Deletes remove it. *)
  Database.delete_object db extra;
  check_int "deleted gone" 0 (List.length (Btree.search ix.Index_def.tree ~key:1000));
  (* Header membership was recorded. *)
  let header, _ = Database.read_object db first in
  Alcotest.(check (list int)) "membership" [ ix.Index_def.id ]
    (Obj_header.indexes header)

let test_db_first_index_reallocation_cost () =
  (* The Section 3.2 story: indexing after an unindexed load rewrites every
     object (headers grow), costing far more I/O than indexing objects that
     were created with slot space. *)
  let build ~indexed =
    let sim, db = mk_db () in
    for i = 0 to 999 do
      ignore
        (Database.insert_object db ~cls:"Patient" ~indexed
           (patient (Printf.sprintf "p%04d" i) i Value.Nil))
    done;
    Database.commit db;
    Database.cold_restart db;
    Tb_sim.Sim.reset sim;
    ignore (Database.create_index db ~name:"mrn" ~cls:"Patient" ~attr:"mrn");
    Database.commit db;
    (sim.Tb_sim.Sim.counters.Tb_sim.Counters.disk_writes, db)
  in
  let writes_realloc, db1 = build ~indexed:false in
  let writes_clean, db2 = build ~indexed:true in
  check_bool "reallocation writes more" true (writes_realloc > writes_clean);
  (* And it degrades physical clustering: relocated objects moved away. *)
  let ix1 = Database.index_on db1 ~cls:"Patient" ~attr:"mrn" in
  let ix2 = Database.index_on db2 ~cls:"Patient" ~attr:"mrn" in
  check_bool "clean load stays clustered" true
    (ix2.Index_def.clustering >= ix1.Index_def.clustering)

let test_analyze_builds_all_histograms () =
  let _, db = mk_db () in
  for i = 0 to 99 do
    ignore (Database.insert_object db ~cls:"Patient" (patient "p" i Value.Nil))
  done;
  let _ = Database.create_index db ~name:"mrn" ~cls:"Patient" ~attr:"mrn" in
  Database.analyze db;
  List.iter
    (fun ix ->
      check_bool "histogram installed" true (ix.Index_def.keys.Index_def.ks_histogram <> None))
    (Database.indexes db)

let test_db_cold_restart () =
  let sim, db = mk_db () in
  let rid = Database.insert_object db ~cls:"Provider" (provider "x" 1) in
  Database.commit db;
  Database.cold_restart db;
  Tb_sim.Sim.reset sim;
  let h = Database.acquire db rid in
  Database.unref db h;
  check_bool "cold fetch hits the disk" true
    (sim.Tb_sim.Sim.counters.Tb_sim.Counters.disk_reads > 0)

let suite =
  [
    Alcotest.test_case "value: fields" `Quick test_value_field;
    QCheck_alcotest.to_alcotest codec_roundtrip;
    Alcotest.test_case "codec: every constructor roundtrips and skips" `Quick
      test_codec_every_constructor;
    Alcotest.test_case "codec: paper byte sizes" `Quick test_codec_int_is_4_bytes;
    Alcotest.test_case "schema: validation" `Quick test_schema_validation;
    Alcotest.test_case "schema: conformance" `Quick test_schema_conforms;
    Alcotest.test_case "header: roundtrip" `Quick test_header_roundtrip;
    Alcotest.test_case "header: size depends on slots" `Quick
      test_header_size_depends_on_slots;
    Alcotest.test_case "header: slot growth" `Quick test_header_slot_growth;
    Alcotest.test_case "handles: refcount and zombies" `Quick
      test_handles_refcount_and_zombies;
    Alcotest.test_case "handles: double unref rejected" `Quick
      test_handles_double_unref_rejected;
    Alcotest.test_case "handles: memory accounting" `Quick
      test_handles_memory_accounting;
    Alcotest.test_case "handles: compact kind is cheaper" `Quick
      test_compact_handles_cheaper;
    QCheck_alcotest.to_alcotest header_in_place_prop;
    QCheck_alcotest.to_alcotest (handles_vs_model 0);
    QCheck_alcotest.to_alcotest (handles_vs_model 1);
    QCheck_alcotest.to_alcotest (handles_vs_model 2);
    QCheck_alcotest.to_alcotest (handles_vs_model 8);
    Alcotest.test_case "handles: colliding rids survive backward shifts" `Quick
      test_handles_collision_stress;
    Alcotest.test_case "handles: a freed slot is rejected" `Quick
      test_handles_freed_slot_rejected;
    Alcotest.test_case "big collection: roundtrip" `Quick
      test_big_collection_roundtrip;
    Alcotest.test_case "big collection: empty" `Quick test_big_collection_empty;
    Alcotest.test_case "btree: basic" `Quick test_btree_basic;
    Alcotest.test_case "btree: duplicates" `Quick test_btree_duplicates;
    Alcotest.test_case "btree: range" `Quick test_btree_range;
    Alcotest.test_case "btree: delete" `Quick test_btree_delete;
    Alcotest.test_case "btree: mass delete rebalances" `Slow
      test_btree_mass_delete_rebalances;
    QCheck_alcotest.to_alcotest btree_delete_model_prop;
    Alcotest.test_case "btree: clustering factor" `Quick
      test_btree_clustering_factor;
    QCheck_alcotest.to_alcotest btree_model_prop;
    Alcotest.test_case "btree: index pages cost I/Os" `Quick
      test_btree_index_pages_cost_ios;
    Alcotest.test_case "histogram: uniform keys" `Quick
      test_histogram_matches_uniform_on_uniform_keys;
    Alcotest.test_case "histogram: beats uniform on skew" `Quick
      test_histogram_beats_uniform_on_skew;
    Alcotest.test_case "db: analyze installs histograms" `Quick
      test_analyze_builds_all_histograms;
    Alcotest.test_case "txn: out of memory" `Quick test_txn_out_of_memory;
    Alcotest.test_case "txn: load mode skips the log" `Quick
      test_txn_load_mode_free;
    Alcotest.test_case "db: insert/read/handle" `Quick test_db_insert_and_read;
    Alcotest.test_case "db: lazy handle matches read_object" `Quick
      test_db_lazy_handle_matches_read_object;
    Alcotest.test_case "db: conformance enforced" `Quick
      test_db_conformance_enforced;
    Alcotest.test_case "db: large sets spill" `Quick test_db_large_set_spills;
    Alcotest.test_case "db: extent scan filters classes" `Quick
      test_db_scan_extent_filters_classes;
    Alcotest.test_case "db: index maintenance" `Quick test_db_index_maintenance;
    Alcotest.test_case "db: first-index reallocation" `Quick
      test_db_first_index_reallocation_cost;
    Alcotest.test_case "db: cold restart" `Quick test_db_cold_restart;
  ]
