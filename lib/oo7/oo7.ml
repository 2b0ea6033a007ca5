module Schema = Tb_store.Schema
module Value = Tb_store.Value
module Database = Tb_store.Database
module Rid = Tb_storage.Rid
module Rng = Tb_sim.Rng

type config = {
  assembly_fanout : int;
  assembly_levels : int;
  components_per_base : int;
  atomics_per_composite : int;
  connections : int;
  seed : int;
}

let tiny =
  {
    assembly_fanout = 3;
    assembly_levels = 4;
    components_per_base = 3;
    atomics_per_composite = 20;
    connections = 3;
    seed = 1993;
  }

let schema =
  Schema.make
    ~classes:
      [
        {
          Schema.cls_name = "ComplexAssembly";
          attrs =
            [
              ("id", Schema.TInt);
              ("buildDate", Schema.TInt);
              ("subComplex", Schema.TSet (Schema.TRef "ComplexAssembly"));
              ("subBase", Schema.TSet (Schema.TRef "BaseAssembly"));
            ];
        };
        {
          Schema.cls_name = "BaseAssembly";
          attrs =
            [
              ("id", Schema.TInt);
              ("buildDate", Schema.TInt);
              ("components", Schema.TSet (Schema.TRef "CompositePart"));
            ];
        };
        {
          Schema.cls_name = "CompositePart";
          attrs =
            [
              ("id", Schema.TInt);
              ("buildDate", Schema.TInt);
              ("rootPart", Schema.TRef "AtomicPart");
              ("parts", Schema.TSet (Schema.TRef "AtomicPart"));
            ];
        };
        {
          Schema.cls_name = "AtomicPart";
          attrs =
            [
              ("id", Schema.TInt);
              ("buildDate", Schema.TInt);
              ("x", Schema.TInt);
              ("y", Schema.TInt);
              ("partOf", Schema.TRef "CompositePart");
              ("connections", Schema.TSet (Schema.TRef "AtomicPart"));
            ];
        };
      ]
    ~roots:
      [
        ("ComplexAssemblies", Schema.TSet (Schema.TRef "ComplexAssembly"));
        ("BaseAssemblies", Schema.TSet (Schema.TRef "BaseAssembly"));
        ("CompositeParts", Schema.TSet (Schema.TRef "CompositePart"));
        ("AtomicParts", Schema.TSet (Schema.TRef "AtomicPart"));
      ]

type built = {
  db : Database.t;
  cfg : config;
  design_root : Rid.t;
  atomic_parts : Rid.t array;
  composite_parts : Rid.t array;
  build_date_index : Tb_store.Index_def.t;
}

let build ?(cost = Tb_sim.Cost_model.scaled 100) cfg =
  let sim = Tb_sim.Sim.create ~seed:cfg.seed cost in
  let rng = sim.Tb_sim.Sim.rng in
  let db =
    Database.create sim ~schema ~server_pages:64 ~client_pages:512
      ~txn_mode:Tb_store.Transaction.Load_off ()
  in
  (* One composition-clustered file, as OO systems laid 007 out. *)
  let file = Database.new_file db ~name:"design" in
  List.iter
    (fun cls -> Database.bind_class db ~cls file)
    [ "ComplexAssembly"; "BaseAssembly"; "CompositePart"; "AtomicPart" ];
  let atomic_counter = ref 0 in
  let composite_counter = ref 0 in
  let assembly_counter = ref 0 in
  let atomics = ref [] and composites = ref [] in
  let date () = Rng.int rng 10_000 in
  (* One composite part: its atomic parts follow it physically; connections
     form a ring plus random chords, as in 007. *)
  let make_composite () =
    let id = !composite_counter in
    incr composite_counter;
    let n = cfg.atomics_per_composite in
    let comp_rid =
      Database.insert_object db ~cls:"CompositePart" ~indexed:true
        (Value.Tuple
           [
             ("id", Value.Int id);
             ("buildDate", Value.Int (date ()));
             ("rootPart", Value.Nil);
             ("parts", Value.Set (List.init n (fun _ -> Value.Ref Rid.nil)));
           ])
    in
    let part_rids =
      Array.init n (fun i ->
          let pid = !atomic_counter in
          incr atomic_counter;
          let rid =
            Database.insert_object db ~cls:"AtomicPart" ~indexed:true
              (Value.Tuple
                 [
                   ("id", Value.Int pid);
                   ("buildDate", Value.Int (date ()));
                   ("x", Value.Int (Rng.int rng 100_000));
                   ("y", Value.Int (Rng.int rng 100_000));
                   ("partOf", Value.Ref comp_rid);
                   ( "connections",
                     Value.Set
                       (List.init cfg.connections (fun _ -> Value.Ref Rid.nil)) );
                 ])
          in
          ignore i;
          rid)
    in
    (* Wire the connections: successor ring + random chords. *)
    Array.iteri
      (fun i rid ->
        let succ = part_rids.((i + 1) mod n) in
        let chords =
          List.init (cfg.connections - 1) (fun _ ->
              Value.Ref part_rids.(Rng.int rng n))
        in
        let _, v = Database.read_object db rid in
        Database.update_object db rid
          (Value.set_field v "connections" (Value.Set (Value.Ref succ :: chords))))
      part_rids;
    let _, v = Database.read_object db comp_rid in
    let v = Value.set_field v "rootPart" (Value.Ref part_rids.(0)) in
    Database.update_object db comp_rid
      (Value.set_field v "parts"
         (Value.Set (Array.to_list (Array.map (fun r -> Value.Ref r) part_rids))));
    atomics := Array.to_list part_rids @ !atomics;
    composites := comp_rid :: !composites;
    comp_rid
  in
  let make_base () =
    let id = !assembly_counter in
    incr assembly_counter;
    let comps = List.init cfg.components_per_base (fun _ -> make_composite ()) in
    Database.insert_object db ~cls:"BaseAssembly" ~indexed:true
      (Value.Tuple
         [
           ("id", Value.Int id);
           ("buildDate", Value.Int (date ()));
           ("components", Value.Set (List.map (fun r -> Value.Ref r) comps));
         ])
  in
  let rec make_complex level =
    let id = !assembly_counter in
    incr assembly_counter;
    let sub_complex, sub_base =
      if level <= 1 then
        ([], List.init cfg.assembly_fanout (fun _ -> make_base ()))
      else
        (List.init cfg.assembly_fanout (fun _ -> make_complex (level - 1)), [])
    in
    Database.insert_object db ~cls:"ComplexAssembly" ~indexed:true
      (Value.Tuple
         [
           ("id", Value.Int id);
           ("buildDate", Value.Int (date ()));
           ("subComplex", Value.Set (List.map (fun r -> Value.Ref r) sub_complex));
           ("subBase", Value.Set (List.map (fun r -> Value.Ref r) sub_base));
         ])
  in
  let design_root = make_complex cfg.assembly_levels in
  let build_date_index =
    Database.create_index db ~name:"buildDate" ~cls:"AtomicPart" ~attr:"buildDate"
  in
  Database.commit db;
  Database.cold_restart db;
  Tb_sim.Sim.reset sim;
  {
    db;
    cfg;
    design_root;
    atomic_parts = Array.of_list (List.rev !atomics);
    composite_parts = Array.of_list (List.rev !composites);
    build_date_index;
  }

(* T1: DFS through assemblies, then through each composite's connection
   graph starting at its root part. *)
let traversal_t1 b =
  let db = b.db in
  let visits = ref 0 in
  let traverse_composite comp_rid =
    let seen = Hashtbl.create 64 in
    let rec dfs rid =
      if not (Hashtbl.mem seen rid) then begin
        Hashtbl.replace seen rid ();
        incr visits;
        let h = Database.acquire db rid in
        ignore (Database.get_att db h "x");
        Database.iter_set db
          (Database.get_att db h "connections")
          (fun r ->
            match r with Value.Ref next -> dfs next | _ -> ());
        Database.unref db h
      end
    in
    let ch = Database.acquire db comp_rid in
    (match Database.get_att db ch "rootPart" with
    | Value.Ref root -> dfs root
    | _ -> ());
    Database.unref db ch
  in
  let rec down rid =
    let h = Database.acquire db rid in
    let cls = Database.class_name db h in
    (match cls with
    | "ComplexAssembly" ->
        Database.iter_set db (Database.get_att db h "subComplex") (fun r ->
            match r with Value.Ref c -> down c | _ -> ());
        Database.iter_set db (Database.get_att db h "subBase") (fun r ->
            match r with Value.Ref c -> down c | _ -> ())
    | "BaseAssembly" ->
        Database.iter_set db (Database.get_att db h "components") (fun r ->
            match r with Value.Ref c -> traverse_composite c | _ -> ())
    | _ -> ());
    Database.unref db h
  in
  down b.design_root;
  !visits

let query_q ~frac b =
  if frac < 0.0 || frac > 1.0 then invalid_arg "Oo7.query_q: frac";
  let cutoff = int_of_float ((1.0 -. frac) *. 10_000.0) in
  let r =
    Tb_query.Planner.run b.db
      (Printf.sprintf
         "select count(a) from a in AtomicParts where a.buildDate >= %d" cutoff)
      ~keep:true
  in
  let n =
    match Tb_query.Query_result.values r with
    | [ Value.Int n ] -> n
    | _ -> invalid_arg "Oo7.query_q: unexpected result"
  in
  Tb_query.Query_result.dispose r;
  n
