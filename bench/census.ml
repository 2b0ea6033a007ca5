(* Memory census: which structures hold the live heap of a built database.

     dune exec --profile release bench/census.exe -- [--scale N] [--seed S]

   Builds e2ebench's paper-cold configuration (deep shape, class-clustered,
   the scaled default caches) at scale N (default 40), restarts it cold,
   runs one cold query that scans every patient so the pools and the Handle
   slab hold a working set, and prints, after a full major collection, the
   bytes each structure holds beside the live heap:

   - durable images: every page's byte image on the simulated disk;
   - private memos: memoized working pages whose buffer is not their image
     (dirty or stale ones; a clean page shares its image);
   - spares: the disk's recycled page buffers;
   - pool frames: both pools' LRU nodes, hash buckets and bucket arrays,
     not the pages (the live words a pool drop frees);
   - Handle slab: its parallel arrays, not the pages they point into;
   - Stat_catalog: the live words [Database.analyze] (the index
     histograms) and [Stat_catalog.analyze] add, as point-lookup builds
     them (paper-cold keeps no statistics, so they are left out of the
     sum);
   - generator leftovers: what [Generator.build] returns besides the
     database, its Rid arrays by logical id.

   The rest is the engine's other state (schema, B+-tree and heap-file
   descriptors, per-page records, the simulator).  The last line is the
   process's peak resident set (VmHWM, Linux only). *)

open Tb_store
module Generator = Tb_derby.Generator
module Disk = Tb_storage.Disk

let usage () =
  prerr_endline "usage: census.exe [--scale N] [--seed S]";
  exit 2

let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

(* The words of a record's own fields' blocks (one level), without what
   those blocks point to: the Handle slab's arrays, not its pages. *)
let shallow_bytes v =
  let r = Obj.repr v in
  let words = ref (Obj.size r + 1) in
  for i = 0 to Obj.size r - 1 do
    let f = Obj.field r i in
    if Obj.is_block f then words := !words + Obj.size f + 1
  done;
  !words * (Sys.word_size / 8)

let vm_hwm () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> Some kb)
            else go ()
      in
      let r = go () in
      close_in ic;
      r

let () =
  let scale = ref 40 and seed = ref 1 in
  let rec parse = function
    | [] -> ()
    | "--scale" :: s :: rest ->
        (match int_of_string_opt s with Some v when v > 0 -> scale := v | _ -> usage ());
        parse rest
    | "--seed" :: s :: rest ->
        (match int_of_string_opt s with Some v -> seed := v | None -> usage ());
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let cfg =
    {
      (Generator.config ~scale:!scale `Deep Generator.Class_clustered) with
      Generator.seed = !seed;
    }
  in
  let b = Generator.build ~cost:(Tb_sim.Cost_model.scaled !scale) cfg in
  let db = b.Generator.db in
  Database.cold_restart db;
  let scan =
    Tb_query.Planner.lower
      (Tb_query.Planner.plan db
         (Tb_query.Oql_parser.parse "select pa.age from pa in Patients where pa.num >= 0"))
  in
  Tb_query.Query_result.dispose (Tb_query.Exec.run db scan ~keep:false);
  let live = live_bytes () in
  let disk = Tb_storage.Cache_stack.disk (Database.stack db) in
  let fp = Disk.footprint disk in
  let slab = shallow_bytes (Handle_table.slab (Database.handles db)) in
  let leftovers =
    (Obj.reachable_words (Obj.repr b.Generator.providers)
    + Obj.reachable_words (Obj.repr b.Generator.patients))
    * (Sys.word_size / 8)
  in
  let catalog =
    let before = live_bytes () in
    Database.analyze db;
    let cat = Tb_statcore.Stat_catalog.analyze db in
    let after = live_bytes () in
    ignore (Sys.opaque_identity cat);
    after - before
  in
  let frames =
    let before = live_bytes () in
    Tb_storage.Cache_stack.drop (Database.stack db);
    before - live_bytes ()
  in
  let rows =
    [
      ("durable images", fp.Disk.image_bytes);
      ("private memos", fp.Disk.memo_bytes);
      ("spares", fp.Disk.spare_bytes);
      ("pool frames", frames);
      ("Handle slab", slab);
      ("Stat_catalog", catalog);
      ("generator leftovers", leftovers);
    ]
  in
  let mb n = float_of_int n /. 1048576.0 in
  Printf.printf "census: paper-cold configuration, scale %d, seed %d, %d pages\n"
    !scale !seed (Disk.total_pages disk);
  Printf.printf "  %-22s %9.3f MB\n" "live heap" (mb live);
  let named = ref 0 in
  List.iter
    (fun (name, bytes) ->
      if name <> "Stat_catalog" then named := !named + bytes;
      Printf.printf "  %-22s %9.3f MB  %5.1f%%\n" name (mb bytes)
        (100.0 *. float_of_int bytes /. float_of_int live))
    rows;
  Printf.printf "  %-22s %9.3f MB  %5.1f%%\n" "other" (mb (live - !named))
    (100.0 *. float_of_int (live - !named) /. float_of_int live);
  match vm_hwm () with
  | Some kb -> Printf.printf "  %-22s %9.3f MB\n" "peak RSS (VmHWM)" (float_of_int kb /. 1024.0)
  | None -> ()
