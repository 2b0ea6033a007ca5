(* Tests for the storage engine: Rids, slotted pages, LRU pools, the
   two-tier cache stack and heap files. *)

open Tb_storage

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fresh_stack ?(server = 8) ?(client = 16) () =
  let sim = Tb_sim.Sim.create (Tb_sim.Cost_model.scaled 100) in
  let disk = Disk.create sim in
  (sim, disk, Cache_stack.create sim disk ~server_pages:server ~client_pages:client)

(* --- Rid --- *)

let test_rid_roundtrip () =
  let rid = Rid.make ~file:3 ~page:123456 ~slot:77 in
  let decoded = Rid.decode (Rid.encode rid) ~pos:0 in
  check_bool "roundtrip" true (Rid.equal rid decoded);
  check_bool "nil roundtrip" true
    (Rid.is_nil (Rid.decode (Rid.encode Rid.nil) ~pos:0))

let test_rid_order_is_physical () =
  let a = Rid.make ~file:0 ~page:5 ~slot:9 in
  let b = Rid.make ~file:0 ~page:6 ~slot:0 in
  let c = Rid.make ~file:1 ~page:0 ~slot:0 in
  check_bool "page order" true (Rid.compare a b < 0);
  check_bool "file order" true (Rid.compare b c < 0)

(* Random Rids over several files with many repeats, nil included. *)
let rid_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Rid.nil);
        ( 12,
          map3
            (fun file page slot -> Rid.make ~file ~page ~slot)
            (int_range 0 5) (int_range 0 40) (int_range 0 12) );
        ( 2,
          map3
            (fun file page slot -> Rid.make ~file ~page ~slot)
            (int_range 0 Rid.max_file) (int_range 0 Rid.max_page)
            (int_range 0 Rid.max_slot) );
      ])

let rid_arb = QCheck.make ~print:Rid.to_string rid_gen

let field_triple =
  QCheck.(
    triple (int_range 0 Rid.max_file) (int_range 0 Rid.max_page)
      (int_range 0 Rid.max_slot))

let rid_pack_roundtrip =
  QCheck.Test.make ~name:"rid: pack/unpack round trip" ~count:500 field_triple
    (fun (file, page, slot) ->
      let r = Rid.make ~file ~page ~slot in
      Rid.file r = file && Rid.page r = page && Rid.slot r = slot
      && not (Rid.is_nil r))

let lex (a : Rid.t) (b : Rid.t) =
  let key r = (Rid.file r, Rid.page r, Rid.slot r) in
  let (f1, p1, s1), (f2, p2, s2) = (key a, key b) in
  let c = Int.compare f1 f2 in
  if c <> 0 then c
  else
    let c = Int.compare p1 p2 in
    if c <> 0 then c else Int.compare s1 s2

let rid_compare_is_lexicographic =
  QCheck.Test.make ~name:"rid: compare is (file, page, slot) order, nil first"
    ~count:1000 (QCheck.pair rid_arb rid_arb) (fun (a, b) ->
      Int.compare (Rid.compare a b) 0 = Int.compare (lex a b) 0
      && Rid.equal a b = (Rid.compare a b = 0)
      && (Rid.is_nil a || Rid.compare Rid.nil a < 0))

let rid_encode_roundtrip =
  QCheck.Test.make ~name:"rid: encode/decode round trip" ~count:500 rid_arb
    (fun r ->
      (* the on-disk file field is 16 bits; 0xffff marks nil *)
      QCheck.assume (Rid.is_nil r || Rid.file r < Rid.disk_file_limit - 1);
      let b = Bytes.make (Rid.on_disk_bytes + 3) 'x' in
      Rid.encode_into r b ~pos:3;
      Rid.equal (Rid.decode (Rid.encode r) ~pos:0) r
      && Rid.equal (Rid.decode b ~pos:3) r)

(* Literal FNV-1a values of the (file, page, slot) triple: Mem_hash and
   Handle_table bucket order, hybrid partitioning and exchange routing all
   depend on them staying exactly these. *)
let test_rid_hash_values () =
  List.iter
    (fun ((file, page, slot), want) ->
      check_int
        (Printf.sprintf "hash (%d, %d, %d)" file page slot)
        want
        (Rid.hash (Rid.make ~file ~page ~slot)))
    [
      ((0, 0, 0), 4237627503871588279);
      ((0, 5, 9), 4236220061257599141);
      ((3, 123456, 77), 2147207615595247201);
      ((1, 0, 0), 3897316082650334316);
      ((7, 10000, 200), 1419892211784966590);
      ((Rid.max_file, Rid.max_page, Rid.max_slot), 3932291615479287252);
    ];
  check_int "hash nil" 34028581817077204 (Rid.hash Rid.nil);
  check_int "nil file" (-1) (Rid.file Rid.nil);
  check_int "nil page" (-1) (Rid.page Rid.nil);
  check_int "nil slot" (-1) (Rid.slot Rid.nil)

let test_rid_make_range () =
  let raises name f =
    check_bool name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "file < 0" (fun () -> Rid.make ~file:(-1) ~page:0 ~slot:0);
  raises "file > max" (fun () -> Rid.make ~file:(Rid.max_file + 1) ~page:0 ~slot:0);
  raises "page < 0" (fun () -> Rid.make ~file:0 ~page:(-1) ~slot:0);
  raises "page > max" (fun () -> Rid.make ~file:0 ~page:(Rid.max_page + 1) ~slot:0);
  raises "slot < 0" (fun () -> Rid.make ~file:0 ~page:0 ~slot:(-1));
  raises "slot > max" (fun () -> Rid.make ~file:0 ~page:0 ~slot:(Rid.max_slot + 1))

(* Exchange tags a key's file id with its source shard; at the largest
   shard count Shard_map accepts, the tag must still fit and come back
   off. *)
let test_rid_retag_max_shards () =
  let shards = Tb_store.Shard_map.max_shards in
  let smap n =
    Tb_store.Shard_map.create
      (Tb_sim.Sim.create (Tb_sim.Cost_model.scaled 100))
      ~schema:Tb_derby.Derby.schema ~shards:n ~server_pages:64 ~client_pages:64
      ~key_attr:"upin" ~seed:1 ()
  in
  check_int "max_shards" 16 shards;
  check_int "S = max_shards accepted" shards
    (Tb_store.Shard_map.count (smap shards));
  check_bool "S = max_shards + 1 rejected" true
    (match smap (shards + 1) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  List.iter
    (fun (file, page, slot) ->
      let r = Rid.make ~file ~page ~slot in
      let shard = shards - 1 in
      let tagged = Tb_query.Exchange.retag ~shard r in
      check_int "tag" shard (Rid.file tagged / Rid.disk_file_limit);
      check_int "file" file (Rid.file tagged mod Rid.disk_file_limit);
      check_int "page" page (Rid.page tagged);
      check_int "slot" slot (Rid.slot tagged))
    [ (0, 0, 0); (0xfffe, Rid.max_page, Rid.max_slot); (3, 17, 5) ];
  check_bool "nil stays nil" true
    (Rid.is_nil (Tb_query.Exchange.retag ~shard:(shards - 1) Rid.nil))

let rid_sort_matches_stdlib =
  QCheck.Test.make ~name:"rid: sort = Array.sort Rid.compare" ~count:300
    QCheck.(
      make
        ~print:(fun a -> String.concat " " (Array.to_list (Array.map Rid.to_string a)))
        Gen.(
          oneof
            [
              array_size (int_range 0 2) rid_gen;
              array_size (int_range 3 40) rid_gen;
              array_size (int_range 200 3000) rid_gen;
            ]))
    (fun a ->
      let want = Array.copy a in
      Array.sort Rid.compare want;
      let got = Array.copy a in
      Rid.sort got;
      Array.for_all2 Rid.equal want got)

(* --- Slotted page --- *)

let body s = Bytes.of_string s

let test_page_insert_read () =
  let p = Page_layout.create ~size:256 in
  let s0 = Option.get (Page_layout.insert p (body "hello")) in
  let s1 = Option.get (Page_layout.insert p (body "world!")) in
  check_string "slot 0" "hello" (Bytes.to_string (Page_layout.read p s0));
  check_string "slot 1" "world!" (Bytes.to_string (Page_layout.read p s1));
  check_int "live" 2 (Page_layout.live_count p);
  Page_layout.check_invariants p

let test_page_delete_and_reuse () =
  let p = Page_layout.create ~size:256 in
  let s0 = Option.get (Page_layout.insert p (body "aaaa")) in
  let _s1 = Option.get (Page_layout.insert p (body "bbbb")) in
  Page_layout.delete p s0;
  check_bool "dead read raises" true
    (match Page_layout.read p s0 with
    | exception Not_found -> true
    | _ -> false);
  let s2 = Option.get (Page_layout.insert p (body "cc")) in
  check_int "dead slot reused" s0 s2;
  Page_layout.check_invariants p

let test_page_full () =
  let p = Page_layout.create ~size:64 in
  (* 64 bytes: 4 header + per record (10 body + 4 dir) -> at most 4. *)
  let inserted = ref 0 in
  (try
     while true do
       match Page_layout.insert p (Bytes.make 10 'x') with
       | Some _ -> incr inserted
       | None -> raise Exit
     done
   with Exit -> ());
  check_int "fills then refuses" 4 !inserted;
  Page_layout.check_invariants p

let test_page_compaction_recovers_space () =
  let p = Page_layout.create ~size:128 in
  let slots =
    List.init 5 (fun _ -> Option.get (Page_layout.insert p (Bytes.make 20 'a')))
  in
  (* Free alternating slots: contiguous space is tight, total space is not. *)
  List.iteri (fun i s -> if i mod 2 = 0 then Page_layout.delete p s) slots;
  check_bool "large insert succeeds via compaction" true
    (Option.is_some (Page_layout.insert p (Bytes.make 40 'z')));
  Page_layout.check_invariants p

let test_page_update_in_place_and_grow () =
  let p = Page_layout.create ~size:256 in
  let s = Option.get (Page_layout.insert p (body "short")) in
  check_bool "shrink ok" true (Page_layout.update p s (body "s"));
  check_string "shrunk" "s" (Bytes.to_string (Page_layout.read p s));
  check_bool "grow ok" true (Page_layout.update p s (Bytes.make 100 'g'));
  check_int "grown" 100 (Bytes.length (Page_layout.read p s));
  let _ = Option.get (Page_layout.insert p (Bytes.make 100 'f')) in
  check_bool "grow past capacity fails" false
    (Page_layout.update p s (Bytes.make 200 'g'));
  check_int "unchanged on failure" 100 (Bytes.length (Page_layout.read p s));
  Page_layout.check_invariants p

(* Model-based property test: random op sequences against an association
   list model. *)
let page_model_test =
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          (6, map (fun n -> `Insert (max 1 (n mod 60))) nat);
          (2, map (fun i -> `Delete i) nat);
          (2, map2 (fun i n -> `Update (i, max 1 (n mod 60))) nat nat);
        ])
  in
  let ops = make Gen.(list_size (int_range 1 120) op_gen) in
  Test.make ~name:"slotted page behaves like its model" ~count:200 ops
    (fun ops ->
      let p = Page_layout.create ~size:512 in
      let model : (int, bytes) Hashtbl.t = Hashtbl.create 16 in
      let counter = ref 0 in
      let payload len =
        incr counter;
        Bytes.make len (Char.chr (65 + (!counter mod 26)))
      in
      let live_slots () = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
      List.iter
        (fun op ->
          (match op with
          | `Insert len -> (
              let b = payload len in
              match Page_layout.insert p b with
              | Some slot ->
                  if Hashtbl.mem model slot then failwith "slot reused while live";
                  Hashtbl.replace model slot b
              | None ->
                  (* Refusal is only legal when the page really is full. *)
                  if Page_layout.free_bytes p >= len + 4 then
                    failwith "refused although it fits")
          | `Delete i -> (
              match live_slots () with
              | [] -> ()
              | slots ->
                  let slot = List.nth slots (i mod List.length slots) in
                  Page_layout.delete p slot;
                  Hashtbl.remove model slot)
          | `Update (i, len) -> (
              match live_slots () with
              | [] -> ()
              | slots ->
                  let slot = List.nth slots (i mod List.length slots) in
                  let b = payload len in
                  if Page_layout.update p slot b then Hashtbl.replace model slot b));
          Page_layout.check_invariants p)
        ops;
      (* Final state agrees with the model. *)
      Hashtbl.iter
        (fun slot b ->
          if not (Bytes.equal (Page_layout.read p slot) b) then
            failwith "content mismatch")
        model;
      Page_layout.live_count p = Hashtbl.length model)

(* --- Page ids --- *)

let test_page_id_packing () =
  (* Page ids pack into a single immediate int: the accessors must invert
     [make] across the whole supported range. *)
  List.iter
    (fun (file, index) ->
      let id = Page_id.make ~file ~index in
      check_int "file" file (Page_id.file id);
      check_int "index" index (Page_id.index id))
    [ (0, 0); (7, 123_456_789); (1 lsl 20, (1 lsl 40) - 1) ];
  check_bool "negative file rejected" true
    (match Page_id.make ~file:(-1) ~index:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "oversized index rejected" true
    (match Page_id.make ~file:0 ~index:(1 lsl 40) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "equal/compare agree" true
    (Page_id.equal (Page_id.make ~file:1 ~index:2) (Page_id.make ~file:1 ~index:2)
    && Page_id.compare (Page_id.make ~file:1 ~index:2) (Page_id.make ~file:2 ~index:0) < 0)

(* --- Buffer pool --- *)

let pid i = Page_id.make ~file:0 ~index:i
let page () = Page_layout.create ~size:64

(* [Buffer_pool.add] with its victim, if any, read back as an option. *)
let add pool id p =
  if Buffer_pool.add pool id p then
    Some (Buffer_pool.victim_id pool, Buffer_pool.victim pool)
  else None

let test_pool_lru_eviction () =
  let pool = Buffer_pool.create ~capacity_pages:2 in
  let p0 = page () and p1 = page () and p2 = page () in
  check_bool "no victim" true (add pool (pid 0) p0 = None);
  check_bool "no victim" true (add pool (pid 1) p1 = None);
  (* Touch 0 so 1 becomes the LRU. *)
  ignore (Buffer_pool.find pool (pid 0));
  (match add pool (pid 2) p2 with
  | Some (vid, _) -> check_bool "evicts LRU (1)" true (Page_id.equal vid (pid 1))
  | None -> Alcotest.fail "expected eviction");
  check_bool "0 still in" true (Buffer_pool.mem pool (pid 0));
  check_bool "1 out" false (Buffer_pool.mem pool (pid 1))

let test_pool_readd_refreshes () =
  let pool = Buffer_pool.create ~capacity_pages:2 in
  ignore (add pool (pid 0) (page ()));
  ignore (add pool (pid 1) (page ()));
  ignore (add pool (pid 0) (page ()));
  (match add pool (pid 2) (page ()) with
  | Some (vid, _) -> check_bool "1 was LRU" true (Page_id.equal vid (pid 1))
  | None -> Alcotest.fail "expected eviction");
  Buffer_pool.clear pool;
  check_int "cleared" 0 (Buffer_pool.size pool)

let pool_never_exceeds_capacity =
  QCheck.Test.make ~name:"pool never exceeds capacity" ~count:100
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 30)))
    (fun (cap, adds) ->
      let pool = Buffer_pool.create ~capacity_pages:cap in
      List.iter (fun i -> ignore (add pool (pid i) (page ()))) adds;
      Buffer_pool.size pool <= cap)

let expect_victim pool id p want =
  match add pool id p with
  | Some (vid, _) ->
      check_bool
        (Printf.sprintf "victim is %d" (Page_id.index want))
        true
        (Page_id.equal vid want)
  | None -> Alcotest.fail "expected eviction"

let test_pool_interleaved_order () =
  (* The eviction order must track an interleaving of find/add/remove, not
     just insertion order. *)
  let pool = Buffer_pool.create ~capacity_pages:3 in
  ignore (add pool (pid 0) (page ()));
  ignore (add pool (pid 1) (page ()));
  ignore (add pool (pid 2) (page ()));
  (* Recency (old -> new) is 0 1 2; touch 0 and drop 1: now 2 0. *)
  ignore (Buffer_pool.find pool (pid 0));
  Buffer_pool.remove pool (pid 1);
  check_int "remove shrinks" 2 (Buffer_pool.size pool);
  check_bool "freed slot absorbs an add" true
    (add pool (pid 3) (page ()) = None);
  (* Chain is 2 0 3: successive adds evict in exactly that order. *)
  expect_victim pool (pid 4) (page ()) (pid 2);
  expect_victim pool (pid 5) (page ()) (pid 0);
  expect_victim pool (pid 6) (page ()) (pid 3);
  (* iter agrees with the chain, LRU first. *)
  let order = ref [] in
  Buffer_pool.iter pool (fun id _ -> order := Page_id.index id :: !order);
  Alcotest.(check (list int)) "iter order" [ 4; 5; 6 ] (List.rev !order)

let test_pool_capacity_one () =
  let pool = Buffer_pool.create ~capacity_pages:1 in
  let p0 = page () in
  check_bool "first add fits" true (add pool (pid 0) p0 = None);
  (match add pool (pid 1) (page ()) with
  | Some (vid, vp) ->
      check_bool "sole resident is the victim" true (Page_id.equal vid (pid 0));
      check_bool "victim page returned" true (vp == p0)
  | None -> Alcotest.fail "expected eviction");
  check_bool "newcomer resident" true (Buffer_pool.mem pool (pid 1));
  check_bool "victim gone" false (Buffer_pool.mem pool (pid 0));
  check_int "still one entry" 1 (Buffer_pool.size pool);
  (* The recycled node keeps working: find and evict again. *)
  check_bool "find newcomer" true
    (match Buffer_pool.find pool (pid 1) with
    | _ -> true
    | exception Not_found -> false);
  expect_victim pool (pid 2) (page ()) (pid 1)

let test_pool_clear_resets_chain () =
  let pool = Buffer_pool.create ~capacity_pages:2 in
  ignore (add pool (pid 0) (page ()));
  ignore (add pool (pid 1) (page ()));
  Buffer_pool.clear pool;
  check_int "empty" 0 (Buffer_pool.size pool);
  let seen = ref 0 in
  Buffer_pool.iter pool (fun _ _ -> incr seen);
  check_int "iter sees nothing" 0 !seen;
  check_bool "stale id gone" false (Buffer_pool.mem pool (pid 0));
  (* The chain restarts from scratch; no stale node resurfaces. *)
  ignore (add pool (pid 2) (page ()));
  ignore (add pool (pid 3) (page ()));
  expect_victim pool (pid 4) (page ()) (pid 2)

(* --- Cache stack --- *)

let test_stack_charges_layers () =
  let sim, disk, stack = fresh_stack () in
  let file = Disk.new_file disk ~name:"f" in
  let index = Disk.append_page disk ~file in
  let id = Page_id.make ~file ~index in
  Tb_sim.Sim.reset sim;
  ignore (Cache_stack.fetch stack id);
  let c = sim.Tb_sim.Sim.counters in
  check_int "first touch misses both caches" 1 c.Tb_sim.Counters.disk_reads;
  check_int "one rpc" 1 c.Tb_sim.Counters.rpc_count;
  ignore (Cache_stack.fetch stack id);
  check_int "second touch is a client hit" 1 c.Tb_sim.Counters.client_hits;
  check_int "no extra disk read" 1 c.Tb_sim.Counters.disk_reads

let test_stack_server_hit_after_client_eviction () =
  let sim, disk, stack = fresh_stack ~server:8 ~client:2 () in
  let file = Disk.new_file disk ~name:"f" in
  let ids =
    List.init 3 (fun _ -> Page_id.make ~file ~index:(Disk.append_page disk ~file))
  in
  List.iter (fun id -> ignore (Cache_stack.fetch stack id)) ids;
  (* Page 0 fell out of the 2-page client cache but not the server cache. *)
  Tb_sim.Sim.reset sim;
  ignore (Cache_stack.fetch stack (List.hd ids));
  let c = sim.Tb_sim.Sim.counters in
  check_int "no disk read" 0 c.Tb_sim.Counters.disk_reads;
  check_int "served by server" 1 c.Tb_sim.Counters.server_hits;
  check_int "still one rpc" 1 c.Tb_sim.Counters.rpc_count

let test_stack_cold_after_clear () =
  let sim, disk, stack = fresh_stack () in
  let file = Disk.new_file disk ~name:"f" in
  let id = Page_id.make ~file ~index:(Disk.append_page disk ~file) in
  ignore (Cache_stack.fetch stack id);
  Cache_stack.clear stack;
  Tb_sim.Sim.reset sim;
  ignore (Cache_stack.fetch stack id);
  check_int "cold again" 1 sim.Tb_sim.Sim.counters.Tb_sim.Counters.disk_reads

let test_stack_dirty_writeback () =
  let sim, disk, stack = fresh_stack () in
  let file = Disk.new_file disk ~name:"f" in
  let id = Page_id.make ~file ~index:(Disk.append_page disk ~file) in
  let page = Cache_stack.fetch_for_write stack id in
  ignore (Page_layout.insert page (Bytes.of_string "dirty"));
  Tb_sim.Sim.reset sim;
  Cache_stack.flush stack;
  check_int "flushed to disk" 1 sim.Tb_sim.Sim.counters.Tb_sim.Counters.disk_writes;
  Tb_sim.Sim.reset sim;
  Cache_stack.flush stack;
  check_int "flush is idempotent" 0
    sim.Tb_sim.Sim.counters.Tb_sim.Counters.disk_writes

(* The disk hands back its memoized working object iff that object is
   clean: dropping the pools (abort, crash) re-reads only dirtied pages. *)
let test_stack_drop_keeps_clean_memos () =
  let sim, disk, stack = fresh_stack () in
  let file = Disk.new_file disk ~name:"f" in
  let clean = Page_id.make ~file ~index:(Disk.append_page disk ~file) in
  let dirty = Page_id.make ~file ~index:(Disk.append_page disk ~file) in
  let clean_obj = Cache_stack.fetch stack clean in
  let dirty_obj = Cache_stack.fetch_for_write stack dirty in
  ignore (Page_layout.insert dirty_obj (Bytes.of_string "lost"));
  Cache_stack.drop stack;
  Tb_sim.Sim.reset sim;
  check_bool "clean memo reused" true (Cache_stack.fetch stack clean == clean_obj);
  let reread = Cache_stack.fetch stack dirty in
  check_bool "dirty memo not reused" false (reread == dirty_obj);
  check_int "dirty page re-read from its image" 0 (Page_layout.slot_count reread);
  check_int "both reloads still charge a disk read" 2
    sim.Tb_sim.Sim.counters.Tb_sim.Counters.disk_reads

let test_disk_image_writes_drop_memo () =
  let _, disk, _ = fresh_stack () in
  let file = Disk.new_file disk ~name:"f" in
  let torn = Page_id.make ~file ~index:(Disk.append_page disk ~file) in
  let restored = Page_id.make ~file ~index:(Disk.append_page disk ~file) in
  let torn_obj = Disk.load_page disk torn in
  check_bool "a clean load is memoized" true (Disk.load_page disk torn == torn_obj);
  let written = Page_layout.create ~size:(Disk.page_size disk) in
  ignore (Page_layout.insert written (Bytes.make 3000 'x'));
  Disk.persist_torn disk torn written;
  check_bool "persist_torn drops the memo" false (Disk.load_page disk torn == torn_obj);
  let restored_obj = Disk.load_page disk restored in
  let image = Page_layout.snapshot written in
  Disk.restore_image disk restored image ~lsn:7;
  let reloaded = Disk.load_page disk restored in
  check_bool "restore_image drops the memo" false (reloaded == restored_obj);
  check_bool "the reload carries the restored image" true
    (Disk.image_equal disk restored (Page_layout.snapshot reloaded));
  check_int "and its lsn" 7 (Page_layout.lsn reloaded)

(* --- Dirty-block persist and the page checksum --- *)

(* Every single-bit flip must change the checksum.  A tear loses the second
   half-page, so flips there are checked end to end: the durable image
   keeps the old bit under the checksum of the flipped page, and [verify]
   must flag it.  Flips in the first half are checked on the checksum
   itself. *)
let test_checksum_catches_every_bit_flip () =
  let _, disk, _ = fresh_stack () in
  let file = Disk.new_file disk ~name:"f" in
  let size = Disk.page_size disk in
  let pid = Page_id.make ~file ~index:(Disk.append_page disk ~file) in
  let base = Bytes.init size (fun i -> Char.chr ((i * 7919) land 0xff)) in
  let flipped ~word ~bit =
    let b = Bytes.copy base in
    let pos = (8 * word) + (bit / 8) in
    Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 lsl (bit mod 8)));
    b
  in
  let torn_flip_flagged ~word ~bit =
    Disk.restore_image disk pid base ~lsn:0;
    Disk.persist_torn disk pid (Page_layout.of_bytes (flipped ~word ~bit));
    Disk.verify disk = [ pid ]
  in
  let words = size / 8 in
  let last = words - 1 in
  for bit = 0 to 63 do
    check_bool
      (Printf.sprintf "bit %d of the last word flagged" bit)
      true (torn_flip_flagged ~word:last ~bit);
    check_bool
      (Printf.sprintf "bit %d of word 0 moves the checksum" bit)
      true
      (Disk.checksum (flipped ~word:0 ~bit) <> Disk.checksum base)
  done;
  for word = 0 to last do
    if word >= words / 2 then
      check_bool
        (Printf.sprintf "bit 63 of word %d flagged" word)
        true (torn_flip_flagged ~word ~bit:63)
    else
      check_bool
        (Printf.sprintf "bit 63 of word %d moves the checksum" word)
        true
        (Disk.checksum (flipped ~word ~bit:63) <> Disk.checksum base)
  done;
  Disk.restore_image disk pid base ~lsn:0;
  check_bool "a restored image verifies" true (Disk.verify disk = [])

(* Random page mutations — inserts, updates, deletes, the compactions they
   trigger, and B+-tree-style patches through [buffer] — with persists and
   torn persists at random points.  The disk copies only dirty blocks and
   moves each checksum incrementally, yet every surviving image must equal
   its page's bytes and verify against a full recomputation, and [verify]
   must flag exactly the torn pages whose lost half differed. *)
let dirty_block_persist_prop =
  let open QCheck in
  let n_pages = 4 in
  let op_gen =
    Gen.(
      frequency
        [
          (5, map2 (fun p n -> `Insert (p, 1 + (n mod 300))) nat nat);
          (2, map2 (fun p i -> `Delete (p, i)) nat nat);
          (3, map3 (fun p i n -> `Update (p, i, 1 + (n mod 400))) nat nat nat);
          (3, map3 (fun p i n -> `Patch (p, i, n)) nat nat nat);
          (2, map (fun p -> `Persist p) nat);
          (1, map (fun p -> `Torn p) nat);
        ])
  in
  let print = function
    | `Insert (p, n) -> Printf.sprintf "insert %d %d" p n
    | `Delete (p, i) -> Printf.sprintf "delete %d %d" p i
    | `Update (p, i, n) -> Printf.sprintf "update %d %d %d" p i n
    | `Patch (p, i, n) -> Printf.sprintf "patch %d %d %d" p i n
    | `Persist p -> Printf.sprintf "persist %d" p
    | `Torn p -> Printf.sprintf "torn %d" p
  in
  Test.make ~name:"disk: dirty-block persist keeps images and checksums exact"
    ~count:150
    (make ~print:(Print.list print) Gen.(list_size (int_range 1 150) op_gen))
    (fun ops ->
      let _, disk, _ = fresh_stack () in
      let file = Disk.new_file disk ~name:"f" in
      let pids =
        Array.init n_pages (fun _ ->
            Page_id.make ~file ~index:(Disk.append_page disk ~file))
      in
      let pages = Array.map (Disk.load_page disk) pids in
      (* A torn page is dead: the crash that tore it lost its working copy. *)
      let torn = Array.make n_pages None in
      let fill = ref 0 in
      let bytes n =
        incr fill;
        Bytes.init n (fun i -> Char.chr ((!fill + (31 * i)) land 0xff))
      in
      let live_slot page i =
        let slots = ref [] in
        Page_layout.iter_spans page (fun slot _ _ -> slots := slot :: !slots);
        match !slots with
        | [] -> None
        | l -> Some (List.nth l (i mod List.length l))
      in
      List.iter
        (fun op ->
          let p =
            match op with
            | `Insert (p, _) | `Delete (p, _) | `Update (p, _, _)
            | `Patch (p, _, _) | `Persist p | `Torn p ->
                p mod n_pages
          in
          let page = pages.(p) in
          if torn.(p) = None then begin
            (* A loaded page shares its durable image until detached. *)
            (match op with
            | `Insert _ | `Delete _ | `Update _ | `Patch _ ->
                Disk.detach disk pids.(p) page
            | `Persist _ | `Torn _ -> ());
            match op with
            | `Insert (_, n) -> ignore (Page_layout.insert page (bytes n))
            | `Delete (_, i) -> (
                match live_slot page i with
                | Some slot -> Page_layout.delete page slot
                | None -> ())
            | `Update (_, i, n) -> (
                match live_slot page i with
                | Some slot -> ignore (Page_layout.update page slot (bytes n))
                | None -> ())
            | `Patch (_, i, n) -> (
                match live_slot page i with
                | Some slot ->
                    let off = Page_layout.record_offset page slot in
                    let len = Bytes.length (Page_layout.read page slot) in
                    let at = n mod len in
                    let span = 1 + (n / 7 mod (len - at)) in
                    Bytes.blit (bytes span) 0 (Page_layout.buffer page) (off + at)
                      span;
                    Page_layout.record_modified page ~off:(off + at) ~len:span
                | None -> ())
            | `Persist _ ->
                Disk.persist disk pids.(p) page;
                Page_layout.set_dirty page false
            | `Torn _ ->
                let old = Bytes.create (Page_layout.size page) in
                ignore (Disk.copy_image disk pids.(p) old : int);
                let half = Bytes.length old / 2 in
                let lost b = Bytes.sub b half (Bytes.length b - half) in
                Disk.persist_torn disk pids.(p) page;
                torn.(p) <-
                  Some
                    (not (Bytes.equal (lost old) (lost (Page_layout.buffer page))))
          end)
        ops;
      Array.iteri
        (fun p page ->
          if torn.(p) = None then begin
            Disk.persist disk pids.(p) page;
            Page_layout.set_dirty page false;
            if not (Disk.image_equal disk pids.(p) (Page_layout.snapshot page))
            then Test.fail_reportf "page %d: image differs from its page" p
          end)
        pages;
      let expect =
        List.filter (fun p -> torn.(p) = Some true) (List.init n_pages Fun.id)
      in
      let flagged =
        List.map
          (fun pid ->
            let rec find p = if Page_id.equal pids.(p) pid then p else find (p + 1) in
            find 0)
          (Disk.verify disk)
      in
      List.sort compare flagged = expect)

(* A clean working page shares its durable image, and the first write
   detaches it.  Random fetches, writes (an insert or an in-place patch),
   flushes, drops, cold restarts, torn persists and restored images run on
   a stack with small pools, against a model that keeps copies: the image
   of every page and the bytes its working page should hold.  The stack's
   persist observer tells the model when an eviction writes a page.  After
   every step every image equals the model, [verify] flags exactly the
   torn pages, every shared memo aliases its image and is clean, a clean
   memo that does not is stale (torn or restored since its last load),
   and a Handle pinned on a record reads that record's current bytes
   through every write, persist and eviction until the pools are
   dropped. *)
let shared_image_prop =
  let open QCheck in
  let n_pages = 6 in
  let step_gen =
    Gen.(
      frequency
        [
          (4, map (fun p -> `Fetch p) nat);
          (6, map2 (fun p n -> `Write (p, n)) nat nat);
          (1, return `Flush);
          (1, return `Drop);
          (1, return `Cold_restart);
          (1, map (fun p -> `Torn p) nat);
          (1, map2 (fun p k -> `Restore (p, k)) nat bool);
        ])
  in
  let print = function
    | `Fetch p -> Printf.sprintf "fetch %d" p
    | `Write (p, n) -> Printf.sprintf "write %d %d" p n
    | `Flush -> "flush"
    | `Drop -> "drop"
    | `Cold_restart -> "cold_restart"
    | `Torn p -> Printf.sprintf "torn %d" p
    | `Restore (p, k) -> Printf.sprintf "restore %d %b" p k
  in
  Test.make ~name:"stack: shared images agree with a copying model" ~count:300
    (make ~print:(Print.list print) Gen.(list_size (int_range 1 120) step_gen))
    (fun steps ->
      let _, disk, stack = fresh_stack ~server:2 ~client:3 () in
      let file = Disk.new_file disk ~name:"f" in
      let pids =
        Array.init n_pages (fun _ ->
            Page_id.make ~file ~index:(Disk.append_page disk ~file))
      in
      let empty =
        Page_layout.snapshot (Page_layout.create ~size:(Disk.page_size disk))
      in
      let image = Array.init n_pages (fun _ -> Bytes.copy empty) in
      let work = Array.init n_pages (fun _ -> Bytes.copy empty) in
      (* [torn.(p)]: [verify] must flag it; no writes until restored. *)
      let torn = Array.make n_pages false in
      let stale = Array.make n_pages false in
      Cache_stack.set_persist_observer stack
        (Some
           (fun pid ->
             let p = Page_id.index pid in
             image.(p) <- Bytes.copy work.(p)));
      let slab = Tb_store.Handle.create_slab () in
      let pin = ref None in
      let crash () =
        Cache_stack.drop stack;
        (match !pin with
        | Some (_, h, _) -> Tb_store.Handle.free slab h
        | None -> ());
        pin := None;
        Array.iteri (fun p b -> work.(p) <- Bytes.copy b) image
      in
      let first_slot page =
        let first = ref None in
        Page_layout.iter_spans page (fun slot _ _ ->
            if !first = None then first := Some slot);
        !first
      in
      let fetch p =
        stale.(p) <- false;
        let page = Cache_stack.fetch stack pids.(p) in
        if not (Bytes.equal (Page_layout.snapshot page) work.(p)) then
          Test.fail_reportf "page %d: fetched bytes differ from the model" p;
        page
      in
      (* The same write on the page and on a copy of the model's bytes. *)
      let write p n page =
        let model = Page_layout.of_bytes work.(p) in
        let apply page =
          match first_slot page with
          | Some slot when n mod 2 = 1 ->
              let off = Page_layout.record_offset page slot in
              let len = Bytes.length (Page_layout.read page slot) in
              let at = n / 2 mod len in
              Bytes.fill (Page_layout.buffer page) (off + at) 1
                (Char.chr (n land 0xff));
              Page_layout.record_modified page ~off:(off + at) ~len:1
          | Some _ | None ->
              ignore
                (Page_layout.insert page
                   (Bytes.make (1 + (n mod 300)) (Char.chr (65 + (n mod 26)))))
        in
        apply page;
        apply model;
        work.(p) <- Page_layout.snapshot model;
        if not (Bytes.equal (Page_layout.snapshot page) work.(p)) then
          Test.fail_reportf "page %d: written bytes differ from the model" p
      in
      let check () =
        Array.iteri
          (fun p pid ->
            if not (Disk.image_equal disk pid image.(p)) then
              Test.fail_reportf "page %d: image differs from the model" p;
            match Disk.memo disk pid with
            | Some m when Page_layout.shared m ->
                if not (Disk.is_image disk pid (Page_layout.buffer m)) then
                  Test.fail_reportf "page %d: shared memo does not alias its image" p;
                if Page_layout.dirty m then
                  Test.fail_reportf "page %d: shared memo is dirty" p
            | Some m when Page_layout.dirty m ->
                if Disk.is_image disk pid (Page_layout.buffer m) then
                  Test.fail_reportf "page %d: dirty memo writes its image" p
            | Some _ ->
                if not stale.(p) then
                  Test.fail_reportf "page %d: clean memo does not alias its image" p
            | None -> ())
          pids;
        let flagged = List.map Page_id.index (Disk.verify disk) in
        let expect = List.filter (fun p -> torn.(p)) (List.init n_pages Fun.id) in
        if List.sort compare flagged <> expect then
          Test.fail_reportf "verify flags [%s], torn are [%s]"
            (String.concat ";" (List.map string_of_int flagged))
            (String.concat ";" (List.map string_of_int expect));
        match !pin with
        | None -> ()
        | Some (p, h, slot) ->
            let want = Page_layout.read (Page_layout.of_bytes work.(p)) slot in
            let buf = Tb_store.Handle.packed_buf slab h in
            let got =
              Bytes.sub buf (Tb_store.Handle.packed_body slab h) (Bytes.length want)
            in
            if not (Bytes.equal got want) then
              Test.fail_reportf "page %d: the pinned Handle reads stale bytes" p
      in
      List.iter
        (fun step ->
          (match step with
          | `Fetch p -> (
              let p = p mod n_pages in
              let page = fetch p in
              match (!pin, first_slot page) with
              | None, Some slot ->
                  let h =
                    Tb_store.Handle.alloc_packed slab
                      ~rid:(Rid.make ~file ~page:p ~slot)
                      ~class_id:0 ~page ~slot ~delta:0
                      ~body:(Page_layout.record_offset page slot)
                  in
                  pin := Some (p, h, slot)
              | _ -> ())
          | `Write (p, n) ->
              let p = p mod n_pages in
              if not torn.(p) then begin
                stale.(p) <- false;
                write p n (Cache_stack.fetch_for_write stack pids.(p))
              end
          | `Flush -> Cache_stack.flush stack
          | `Drop -> crash ()
          | `Cold_restart ->
              Cache_stack.clear stack;
              crash ()
          | `Torn p ->
              let p = p mod n_pages in
              if not torn.(p) then begin
                let page = fetch p in
                let half = Bytes.length empty / 2 in
                let tail b = Bytes.sub b half (Bytes.length b - half) in
                Disk.persist_torn disk pids.(p) page;
                torn.(p) <- not (Bytes.equal (tail work.(p)) (tail image.(p)));
                Bytes.blit work.(p) 0 image.(p) 0 half;
                stale.(p) <- true;
                crash ()
              end
          | `Restore (p, undo) ->
              (* Undo to the empty page, or redo the working bytes, with the
                 working page still resident (an abort undoes before it
                 drops the pools): its bytes must not move. *)
              let p = p mod n_pages in
              let live = fetch p in
              let target = if undo then Bytes.copy empty else Bytes.copy work.(p) in
              Disk.restore_image disk pids.(p) target ~lsn:0;
              if not (Bytes.equal (Page_layout.snapshot live) work.(p)) then
                Test.fail_reportf "page %d: restore_image wrote into a live page" p;
              image.(p) <- target;
              torn.(p) <- false;
              stale.(p) <- true;
              crash ());
          check ())
        steps;
      true)

(* --- Heap file --- *)

let test_heap_insert_read_scan () =
  let _, _, stack = fresh_stack () in
  let hf = Heap_file.create stack ~name:"heap" in
  let rids =
    List.init 100 (fun i -> Heap_file.insert hf (body (Printf.sprintf "rec-%03d" i)))
  in
  List.iteri
    (fun i rid ->
      check_string "read back"
        (Printf.sprintf "rec-%03d" i)
        (Bytes.to_string (Heap_file.read hf rid)))
    rids;
  let scanned = ref [] in
  Heap_file.scan hf (fun rid b -> scanned := (rid, Bytes.to_string b) :: !scanned);
  check_int "scan count" 100 (List.length !scanned);
  check_int "record_count" 100 (Heap_file.record_count hf)

let test_heap_insertion_order_is_physical_order () =
  let _, _, stack = fresh_stack () in
  let hf = Heap_file.create stack ~name:"heap" in
  let rids = Array.init 200 (fun i -> Heap_file.insert hf (body (string_of_int i))) in
  let sorted = Array.copy rids in
  Array.sort Rid.compare sorted;
  check_bool "rids already in physical order" true (rids = sorted)

(* [Heap_file.update] takes the body behind its framing room; the page,
   slot and offset it then reports must hold exactly that body. *)
let heap_update hf rid b =
  let len = Bytes.length b in
  let buf = Bytes.make (Heap_file.frame_room + len) '?' in
  Bytes.blit b 0 buf Heap_file.frame_room len;
  let page = Heap_file.update hf rid buf ~len in
  let pos = Heap_file.located_pos hf in
  check_string "located body" (Bytes.to_string b)
    (Bytes.sub_string (Page_layout.buffer page) pos len);
  check_bool "located slot holds it" true
    (Page_layout.record_offset page (Heap_file.located_slot hf) < pos)

let test_heap_update_relocation () =
  let sim, _, stack = fresh_stack () in
  let hf = Heap_file.create stack ~name:"heap" in
  (* Fill a page almost completely, then grow the first record. *)
  let first = Heap_file.insert hf (Bytes.make 50 'a') in
  let page_size = sim.Tb_sim.Sim.cost.Tb_sim.Cost_model.page_size in
  let filler_count = (page_size / 60) + 2 in
  let _ = List.init filler_count (fun _ -> Heap_file.insert hf (Bytes.make 50 'f')) in
  heap_update hf first (Bytes.make 600 'B');
  check_int "reads back the grown body" 600
    (Bytes.length (Heap_file.read hf first));
  (* The scan still presents the record at its home Rid. *)
  let seen = ref false in
  Heap_file.scan hf (fun rid b ->
      if Rid.equal rid first then begin
        seen := true;
        check_int "scan body" 600 (Bytes.length b)
      end);
  check_bool "scan shows home rid" true !seen;
  (* And only once. *)
  let count = ref 0 in
  Heap_file.scan hf (fun rid _ -> if Rid.equal rid first then incr count);
  check_int "no duplicates" 1 !count

let test_heap_update_after_relocation_again () =
  let _, _, stack = fresh_stack () in
  let hf = Heap_file.create stack ~name:"heap" in
  let first = Heap_file.insert hf (Bytes.make 50 'a') in
  let _ = List.init 80 (fun _ -> Heap_file.insert hf (Bytes.make 50 'f')) in
  heap_update hf first (Bytes.make 900 'B');
  heap_update hf first (Bytes.make 1200 'C');
  check_int "second growth" 1200 (Bytes.length (Heap_file.read hf first));
  heap_update hf first (Bytes.make 10 'd');
  check_string "shrink after forwarding" (String.make 10 'd')
    (Bytes.to_string (Heap_file.read hf first))

let test_heap_delete () =
  let _, _, stack = fresh_stack () in
  let hf = Heap_file.create stack ~name:"heap" in
  let a = Heap_file.insert hf (body "a") in
  let b = Heap_file.insert hf (body "b") in
  Heap_file.delete hf a;
  check_bool "deleted read raises" true
    (match Heap_file.read hf a with exception Not_found -> true | _ -> false);
  check_string "other record intact" "b" (Bytes.to_string (Heap_file.read hf b));
  check_int "count" 1 (Heap_file.record_count hf)

let test_heap_respects_fill_factor () =
  let sim, _, stack = fresh_stack () in
  let hf = Heap_file.create stack ~name:"heap" in
  (* 120-byte records, as providers: the paper expects ~30 per 4K page. *)
  let record_bytes = 120 in
  for _ = 1 to 300 do
    ignore (Heap_file.insert hf (Bytes.make record_bytes 'p'))
  done;
  let per_page =
    Tb_sim.Cost_model.records_per_page sim.Tb_sim.Sim.cost
      ~record_bytes:(record_bytes + 4 + 1)
  in
  let expected_pages = (300 + per_page - 1) / per_page in
  check_bool "page count near the paper's density" true
    (abs (Heap_file.page_count hf - expected_pages) <= 1)

let heap_roundtrip_prop =
  QCheck.Test.make ~name:"heap file: insert/read roundtrip" ~count:50
    QCheck.(small_list (string_of_size (Gen.int_range 1 300)))
    (fun bodies ->
      let _, _, stack = fresh_stack ~server:64 ~client:128 () in
      let hf = Heap_file.create stack ~name:"heap" in
      let rids = List.map (fun s -> (Heap_file.insert hf (body s), s)) bodies in
      List.for_all
        (fun (rid, s) -> String.equal (Bytes.to_string (Heap_file.read hf rid)) s)
        rids)

let suite =
  [
    Alcotest.test_case "rid: encode/decode" `Quick test_rid_roundtrip;
    Alcotest.test_case "rid: physical order" `Quick test_rid_order_is_physical;
    QCheck_alcotest.to_alcotest rid_pack_roundtrip;
    QCheck_alcotest.to_alcotest rid_compare_is_lexicographic;
    QCheck_alcotest.to_alcotest rid_encode_roundtrip;
    Alcotest.test_case "rid: hash values" `Quick test_rid_hash_values;
    Alcotest.test_case "rid: make rejects out-of-range fields" `Quick
      test_rid_make_range;
    Alcotest.test_case "rid: exchange retag at max shards" `Quick
      test_rid_retag_max_shards;
    QCheck_alcotest.to_alcotest rid_sort_matches_stdlib;
    Alcotest.test_case "page: insert/read" `Quick test_page_insert_read;
    Alcotest.test_case "page: delete and slot reuse" `Quick
      test_page_delete_and_reuse;
    Alcotest.test_case "page: refuses when full" `Quick test_page_full;
    Alcotest.test_case "page: compaction" `Quick
      test_page_compaction_recovers_space;
    Alcotest.test_case "page: update in place and grow" `Quick
      test_page_update_in_place_and_grow;
    QCheck_alcotest.to_alcotest page_model_test;
    Alcotest.test_case "page id: packing roundtrip" `Quick test_page_id_packing;
    Alcotest.test_case "pool: LRU eviction" `Quick test_pool_lru_eviction;
    Alcotest.test_case "pool: re-add refreshes recency" `Quick
      test_pool_readd_refreshes;
    QCheck_alcotest.to_alcotest pool_never_exceeds_capacity;
    Alcotest.test_case "pool: interleaved find/add/remove order" `Quick
      test_pool_interleaved_order;
    Alcotest.test_case "pool: capacity one" `Quick test_pool_capacity_one;
    Alcotest.test_case "pool: clear resets the chain" `Quick
      test_pool_clear_resets_chain;
    Alcotest.test_case "stack: layer charging" `Quick test_stack_charges_layers;
    Alcotest.test_case "stack: server absorbs client evictions" `Quick
      test_stack_server_hit_after_client_eviction;
    Alcotest.test_case "stack: cold after clear" `Quick test_stack_cold_after_clear;
    Alcotest.test_case "stack: dirty write-back" `Quick test_stack_dirty_writeback;
    Alcotest.test_case "stack: drop keeps clean memos only" `Quick
      test_stack_drop_keeps_clean_memos;
    Alcotest.test_case "disk: checksum catches every bit flip" `Quick
      test_checksum_catches_every_bit_flip;
    QCheck_alcotest.to_alcotest dirty_block_persist_prop;
    QCheck_alcotest.to_alcotest shared_image_prop;
    Alcotest.test_case "disk: torn and restored images drop the memo" `Quick
      test_disk_image_writes_drop_memo;
    Alcotest.test_case "heap: insert/read/scan" `Quick test_heap_insert_read_scan;
    Alcotest.test_case "heap: insertion order = physical order" `Quick
      test_heap_insertion_order_is_physical_order;
    Alcotest.test_case "heap: relocation keeps the Rid valid" `Quick
      test_heap_update_relocation;
    Alcotest.test_case "heap: repeated growth" `Quick
      test_heap_update_after_relocation_again;
    Alcotest.test_case "heap: delete" `Quick test_heap_delete;
    Alcotest.test_case "heap: fill factor density" `Quick
      test_heap_respects_fill_factor;
    QCheck_alcotest.to_alcotest heap_roundtrip_prop;
  ]
