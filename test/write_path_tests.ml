(* The byte-level write path against a model.

   [Database.update_object], [insert_object], [delete_object] and
   [create_index]'s header rewrite all read the old record in place and
   encode the new one straight into the page.  A model of every live
   object (class and value), rolled back with each abort, says what the
   store must hold after every step:
   - [read_object] returns the model's value, spilled sets read back
     through [iter_set];
   - each index's [range] and [search] return exactly the model's
     (key, rid) pairs;
   - pinned Handles, and zombie Handles re-acquired from the table, read
     the model's attribute values off their page bytes;
   - a value that does not conform raises [Invalid_argument] and leaves
     records, indexes and the collection file as they were.
   One class is indexed twice and shares its heap file with a second,
   separately indexed class, so index maintenance must keep to the
   written object's class. *)

open Tb_store
module Rid = Tb_storage.Rid
module Heap_file = Tb_storage.Heap_file

let schema =
  Schema.make
    ~classes:
      [
        {
          Schema.cls_name = "Item";
          attrs =
            [
              ("name", Schema.TString);
              ("key", Schema.TInt);
              ("tag", Schema.TInt);
              ("bag", Schema.TSet Schema.TInt);
              ("note", Schema.TTuple [ ("a", Schema.TInt); ("b", Schema.TString) ]);
            ];
        };
        { Schema.cls_name = "Other"; attrs = [ ("x", Schema.TInt) ] };
        { Schema.cls_name = "Plain"; attrs = [ ("x", Schema.TInt); ("s", Schema.TString) ] };
      ]
    ~roots:[]

(* The shape of an Item value: names long enough to move a record within
   its page or off it, and bags big enough to spill. *)
type shape = { name_len : int; key : int; tag : int; bag : int; note : bool }

let item s =
  Value.Tuple
    [
      ("name", Value.String (String.init s.name_len (fun i -> Char.chr (97 + ((i + s.key) mod 26)))));
      ("key", Value.Int s.key);
      ("tag", Value.Int s.tag);
      ("bag", Value.Set (List.init s.bag (fun i -> Value.Int (i + s.tag))));
      ( "note",
        if s.note then Value.Tuple [ ("a", Value.Int s.tag); ("b", Value.String "memo") ]
        else Value.Nil );
    ]

let other x = Value.Tuple [ ("x", Value.Int x) ]

(* Values that must be refused.  [k] picks the defect. *)
let bad_item k s =
  let fields = match item s with Value.Tuple f -> f | _ -> assert false in
  let replace name v = List.map (fun (n, x) -> if n = name then (n, v) else (n, x)) fields in
  match k mod 9 with
  | 0 -> Value.Tuple (replace "key" (Value.String "k"))
  | 1 -> Value.Tuple (List.filter (fun (n, _) -> n <> "tag") fields)
  | 2 -> Value.Tuple (List.rev fields)
  | 3 ->
      Value.Tuple
        (replace "note" (Value.Tuple [ ("a", Value.Int 1); ("c", Value.String "x") ]))
  | 4 -> Value.Tuple (replace "bag" (Value.List []))
  | 5 -> Value.Nil
  | 6 -> Value.Tuple (replace "key" Value.Nil) (* conforms, but key is indexed *)
  | 7 ->
      (* Would spill, but its last element is no integer: nothing may spill. *)
      Value.Tuple
        (replace "bag"
           (Value.Set (List.init 900 (fun i -> Value.Int i) @ [ Value.String "z" ])))
  | _ -> Value.Tuple (fields @ [ ("extra", Value.Int 0) ])

type env = {
  db : Database.t;
  heap : Heap_file.t;
  indexes : Index_def.t list;
  mutable live : (Rid.t * (string * Value.t)) list;
  mutable committed : (Rid.t * (string * Value.t)) list;
  mutable pinned : (Rid.t * Handle.t) list;
  mutable zombies : Rid.t list;
}

let setup ~pages =
  let sim = Tb_sim.Sim.create Tb_sim.Cost_model.default in
  let db =
    Database.create sim ~schema ~server_pages:pages ~client_pages:pages
      ~zombie_limit:1000 ~txn_mode:Transaction.Standard ~uncommitted_limit:1_000_000 ()
  in
  let heap = Database.new_file db ~name:"objects" in
  Database.bind_class db ~cls:"Item" heap;
  Database.bind_class db ~cls:"Other" heap;
  Database.bind_class db ~cls:"Plain" (Database.new_file db ~name:"plain");
  let indexes =
    [
      Database.create_index db ~name:"key" ~cls:"Item" ~attr:"key";
      Database.create_index db ~name:"x" ~cls:"Other" ~attr:"x";
      Database.create_index db ~name:"tag" ~cls:"Item" ~attr:"tag";
    ]
  in
  Database.commit db;
  { db; heap; indexes; live = []; committed = []; pinned = []; zombies = [] }

let fail fmt = Alcotest.failf fmt
let find env rid = List.find_opt (fun (r, _) -> Rid.equal r rid) env.live

let rec readable db v =
  match v with
  | Value.Big_set _ ->
      let xs = ref [] in
      Database.iter_set db v (fun x -> xs := x :: !xs);
      Value.Set (List.rev !xs)
  | Value.Tuple fields -> Value.Tuple (List.map (fun (n, x) -> (n, readable db x)) fields)
  | v -> v

let int_field name v = Value.to_int (Value.field v name)

let pairs_cmp (k1, r1) (k2, r2) =
  match Int.compare k1 k2 with 0 -> Rid.compare r1 r2 | c -> c

let check env step =
  let db = env.db in
  List.iter
    (fun (rid, (cls, v)) ->
      let header, got = Database.read_object db rid in
      if Schema.class_id schema cls <> Obj_header.class_id header then
        fail "%s: %a has the wrong class" step Rid.pp rid;
      if not (Value.equal (readable db got) v) then
        fail "%s: %a reads %a, model %a" step Rid.pp rid Value.pp got Value.pp v)
    env.live;
  List.iter
    (fun cls ->
      let n = List.length (List.filter (fun (_, (c, _)) -> c = cls) env.live) in
      if Database.cardinality db ~cls <> n then fail "%s: %s cardinality" step cls)
    [ "Item"; "Other" ];
  List.iter
    (fun ix ->
      let expected =
        List.sort pairs_cmp
          (List.filter_map
             (fun (rid, (c, v)) ->
               if c = ix.Index_def.cls then Some (int_field ix.Index_def.attr v, rid) else None)
             env.live)
      in
      let got = ref [] in
      Btree.range ix.Index_def.tree (fun k r -> got := (k, r) :: !got);
      if List.sort pairs_cmp !got <> expected then
        fail "%s: index %s range differs from the model" step ix.Index_def.name;
      List.iter
        (fun (k, _) ->
          let want = List.filter_map (fun (k', r) -> if k' = k then Some r else None) expected in
          let found = List.sort Rid.compare (Btree.search ix.Index_def.tree ~key:k) in
          if found <> List.sort Rid.compare want then
            fail "%s: index %s search %d differs" step ix.Index_def.name k)
        expected;
      Btree.check_invariants ix.Index_def.tree)
    env.indexes;
  let check_handle what rid h =
    match find env rid with
    | None -> ()
    | Some (_, (cls, v)) ->
        if Database.class_name db h <> cls then fail "%s: %s handle class" step what;
        List.iter
          (fun (attr, x) ->
            if not (Value.equal (readable db (Database.get_att db h attr)) x) then
              fail "%s: %s handle of %a reads a stale %s" step what Rid.pp rid attr)
          (match v with Value.Tuple f -> f | _ -> []);
        if not (Value.equal (readable db (Database.handle_value db h)) v) then
          fail "%s: %s handle value" step what
  in
  List.iter (fun (rid, h) -> check_handle "pinned" rid h) env.pinned;
  List.iter
    (fun rid ->
      if Option.is_some (find env rid) then begin
        let h = Database.acquire db rid in
        check_handle "zombie" rid h;
        Database.unref db h
      end)
    env.zombies

let collection_pages env = Heap_file.page_count (Database.collections_file env.db)

(* [f] must raise [Invalid_argument] and change nothing. *)
let refused env step f =
  let pages = collection_pages env in
  (match f () with
  | () -> fail "%s: a non-conforming value was accepted" step
  | exception Invalid_argument _ -> ());
  if collection_pages env <> pages then fail "%s: a refused value spilled" step;
  check env step

let update env rid v =
  Database.update_object env.db rid v;
  env.live <- List.map (fun (r, (c, x)) -> if Rid.equal r rid then (r, (c, v)) else (r, (c, x))) env.live

let insert env cls v =
  let rid = Database.insert_object env.db ~cls v in
  env.live <- env.live @ [ (rid, (cls, v)) ];
  rid

let delete env rid =
  Database.delete_object env.db rid;
  env.live <- List.filter (fun (r, _) -> not (Rid.equal r rid)) env.live

let pin env rid = env.pinned <- (rid, Database.acquire env.db rid) :: env.pinned

let commit env =
  Database.commit env.db;
  env.committed <- env.live

let abort env =
  ignore (Database.rollback env.db : int);
  (* Rollback drops every Handle. *)
  env.pinned <- [];
  env.zombies <- [];
  env.live <- env.committed

(* Where the record lies: (page index, physical slot, body offset), and
   whether its body has left its home page. *)
let place env rid =
  let page = Heap_file.locate env.heap rid in
  let slot = Heap_file.located_slot env.heap and pos = Heap_file.located_pos env.heap in
  let home = ref false in
  Heap_file.iter_page_spans env.heap ~page:(Rid.page rid) (fun r _ _ _ ->
      if Rid.equal r rid then home := true);
  ignore page;
  (slot, pos, not !home)

let small key = { name_len = 8; key; tag = key mod 3; bag = 2; note = true }

(* Each case in turn, with a pinned Handle on the object that moves and a
   zombie on the one that spills. *)
let test_scripted () =
  let env = setup ~pages:64 in
  let items = Array.init 30 (fun i -> insert env "Item" (item (small i))) in
  let o = insert env "Other" (other 5) in
  commit env;
  check env "load";
  let a = items.(0) and b = items.(1) in
  pin env a;
  let h = Database.acquire env.db b in
  Database.unref env.db h;
  env.zombies <- [ b ];
  let slot0, pos0, moved0 = place env a in
  if moved0 then fail "a fresh record is away from home";
  update env a (item { (small 0) with key = 7 });
  check env "same size, key moved";
  let slot1, pos1, _ = place env a in
  if slot1 <> slot0 || pos1 <> pos0 then fail "a same-size update moved the record";
  update env a (item { (small 0) with name_len = 200 });
  check env "grown within the page";
  let _, pos2, moved2 = place env a in
  if moved2 || pos2 = pos0 then fail "the record did not move within its page";
  update env a (item { (small 0) with name_len = 2500 });
  check env "relocated";
  let _, _, moved3 = place env a in
  if not moved3 then fail "a record too big for its page stayed home";
  update env a (item { (small 0) with name_len = 3000; key = 9 });
  check env "forwarded, grown again";
  update env a (item { (small 0) with name_len = 10 });
  check env "forwarded, shrunk";
  let pages = collection_pages env in
  update env b (item { (small 1) with bag = 900 });
  check env "spilled";
  (match Database.read_object env.db b with
  | _, Value.Tuple fields -> (
      match Value.assoc "bag" fields with
      | Value.Big_set _ -> ()
      | _ -> fail "a 900-element set stayed inline")
  | _ -> fail "not a tuple");
  if collection_pages env <= pages then fail "the spill wrote no collection page";
  update env b (item (small 1));
  check env "back inline";
  for k = 0 to 8 do
    refused env (Printf.sprintf "refused update %d" k) (fun () ->
        Database.update_object env.db items.(2) (bad_item k (small 2)))
  done;
  refused env "refused insert" (fun () ->
      ignore (Database.insert_object env.db ~cls:"Item" (bad_item 0 (small 3))));
  update env o (other 6);
  check env "other class";
  (* A deleted object's slot is reused by the next insert on its page: a
     Handle left on that Rid reads the new object, of another class. *)
  let x = insert env "Item" (item (small 40)) in
  pin env x;
  delete env x;
  let y = insert env "Other" (other 41) in
  if not (Rid.equal x y) then fail "the insert did not reuse the freed slot";
  check env "slot reused";
  commit env;
  update env items.(5) (item { (small 5) with name_len = 1800 });
  abort env;
  check env "aborted";
  (* The first index over objects created without slot space rewrites
     every header, which grows them and moves some off their page; live
     Handles must follow. *)
  let plain =
    Array.init 120 (fun i ->
        let rid =
          Database.insert_object env.db ~cls:"Plain"
            (Value.Tuple [ ("x", Value.Int (i mod 17)); ("s", Value.String (String.make 24 'p')) ])
        in
        rid)
  in
  let hs = Array.map (Database.acquire env.db) plain in
  let ix = Database.create_index env.db ~name:"px" ~cls:"Plain" ~attr:"x" in
  Array.iteri
    (fun i h ->
      if Value.to_int (Database.get_att env.db h "x") <> i mod 17 then
        fail "after create_index, Handle %d reads a stale x" i;
      if Value.to_string_exn (Database.get_att env.db h "s") <> String.make 24 'p' then
        fail "after create_index, Handle %d reads a stale s" i;
      Database.unref env.db h)
    hs;
  let moved = Array.fold_left (fun n r -> if (fun (_, _, m) -> m) (place env r) then n + 1 else n) 0 plain in
  if moved = 0 then fail "no header rewrite moved a record off its page";
  let got = ref 0 in
  Btree.range ix.Index_def.tree (fun _ _ -> incr got);
  Alcotest.(check int) "every Plain object indexed" 120 !got

(* --- random sequences --- *)

type op =
  | Update of int * shape
  | Update_other of int * int
  | Refuse of int * int
  | Insert of shape
  | Insert_other of int
  | Delete of int
  | Pin of int
  | Unpin of int
  | Commit
  | Abort

let show_shape s =
  Printf.sprintf "{name %d; key %d; tag %d; bag %d; note %b}" s.name_len s.key s.tag s.bag s.note

let show_op = function
  | Update (i, s) -> Printf.sprintf "update %d %s" i (show_shape s)
  | Update_other (i, x) -> Printf.sprintf "update-other %d %d" i x
  | Refuse (i, k) -> Printf.sprintf "refuse %d %d" i k
  | Insert s -> "insert " ^ show_shape s
  | Insert_other x -> Printf.sprintf "insert-other %d" x
  | Delete i -> Printf.sprintf "delete %d" i
  | Pin i -> Printf.sprintf "pin %d" i
  | Unpin i -> Printf.sprintf "unpin %d" i
  | Commit -> "commit"
  | Abort -> "abort"

let shape_gen =
  let open QCheck.Gen in
  let* name_len =
    frequency [ (6, int_range 1 20); (3, int_range 40 400); (2, int_range 900 2600) ]
  in
  let* key = int_range 0 12 in
  let* tag = int_range 0 5 in
  let* bag = frequency [ (8, int_range 0 5); (1, int_range 850 950) ] in
  let* note = bool in
  return { name_len; key; tag; bag; note }

let op_gen =
  let open QCheck.Gen in
  let idx = int_range 0 1000 in
  frequency
    [
      (10, map2 (fun i s -> Update (i, s)) idx shape_gen);
      (2, map2 (fun i x -> Update_other (i, x)) idx (int_range 0 9));
      (2, map2 (fun i k -> Refuse (i, k)) idx (int_range 0 8));
      (3, map (fun s -> Insert s) shape_gen);
      (1, map (fun x -> Insert_other x) (int_range 0 9));
      (2, map (fun i -> Delete i) idx);
      (2, map (fun i -> Pin i) idx);
      (2, map (fun i -> Unpin i) idx);
      (1, return Commit);
      (1, return Abort);
    ]

let nth_of cls env i =
  match List.filter (fun (_, (c, _)) -> c = cls) env.live with
  | [] -> None
  | l -> Some (fst (List.nth l (i mod List.length l)))

let apply env = function
  | Update (i, s) -> Option.iter (fun rid -> update env rid (item s)) (nth_of "Item" env i)
  | Update_other (i, x) -> Option.iter (fun rid -> update env rid (other x)) (nth_of "Other" env i)
  | Refuse (i, k) ->
      Option.iter
        (fun rid ->
          refused env "refuse" (fun () ->
              Database.update_object env.db rid (bad_item k (small 1))))
        (nth_of "Item" env i)
  | Insert s -> ignore (insert env "Item" (item s) : Rid.t)
  | Insert_other x -> ignore (insert env "Other" (other x) : Rid.t)
  | Delete i -> (
      match env.live with
      | [] -> ()
      | l -> delete env (fst (List.nth l (i mod List.length l))))
  | Pin i -> (
      match env.live with
      | [] -> ()
      | l -> pin env (fst (List.nth l (i mod List.length l))))
  | Unpin i -> (
      match env.pinned with
      | [] -> ()
      | l ->
          let k = i mod List.length l in
          let rid, h = List.nth l k in
          env.pinned <- List.filteri (fun j _ -> j <> k) l;
          Database.unref env.db h;
          env.zombies <- rid :: env.zombies)
  | Commit -> commit env
  | Abort -> abort env

let run ops =
  (* Three-page pools: records, index leaves and spilled chunks evict one
     another, so Handles outlive the page objects they were loaded from. *)
  let env = setup ~pages:3 in
  for i = 0 to 11 do
    ignore (insert env "Item" (item (small i)) : Rid.t)
  done;
  ignore (insert env "Other" (other 1) : Rid.t);
  commit env;
  List.iter
    (fun op ->
      apply env op;
      check env (show_op op))
    ops;
  true

let prop =
  QCheck.Test.make ~count:60 ~name:"writes: random updates, inserts, deletes agree with the model"
    QCheck.(make ~print:(Print.list show_op) Gen.(list_size (int_range 1 40) op_gen))
    run

let suite =
  [
    Alcotest.test_case "writes: in place, moved, relocated, forwarded, spilled, refused"
      `Quick test_scripted;
    QCheck_alcotest.to_alcotest prop;
  ]
