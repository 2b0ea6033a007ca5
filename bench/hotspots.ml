(* Wall-clock hot spots by source line.

     dune exec --profile release bench/hotspots.exe -- [--seconds S]
       [--scale N] [--top K] [cold | update | all]

   A [Unix.setitimer] SIGALRM fires every millisecond of wall time and its
   handler records [Printexc.get_callstack].  Each workload is built first
   and sampled only while it runs, then source lines are ranked by self
   samples (the innermost engine frame) and by inclusive samples (the line
   is anywhere on the stack, counted once per sample).  Executables are
   built with [-g], so the stacks carry file and line, inlined frames
   included.  A stdlib self line (a hash, a list walk) serves many callers,
   so it is listed with its three commonest chains of five engine ([lib/])
   frames; any other self line with its commonest caller.

   - [cold]: the paper-cold query mix — selections at 1..90% by scan,
     unsorted and sorted index, a 50% count, and the Fig 11-14 joins at
     10/50/90% under each algorithm — each query after a cold restart;
   - [update]: a warm standard-mode loop of ten-write transactions (half
     swap two patients' indexed nums, half set an age), every tenth one
     aborted, the rest committed.

   Where a sample lands: OCaml runs a signal handler only at its next poll
   point (an allocation, a function entry or a loop back-edge), so each
   sample is credited to the code at that poll point.  An allocation site
   therefore collects the time of the non-allocating work just before it —
   a long blit or a C call — and a tight loop that never polls hands its
   time to whatever polls after it.  Read the ranking as "time spent on the
   way to this line".  Each workload's header also gives the iterations it
   completed and their rate: the sample count is fixed by the wall time,
   so only the rate shows whether a change made the workload faster. *)

open Tb_store
module Generator = Tb_derby.Generator
module Planner = Tb_query.Planner
module Plan = Tb_query.Plan

let usage () =
  prerr_endline
    "usage: hotspots.exe [--seconds S] [--scale N] [--top K] [cold | update | all]";
  exit 2

(* --- the sampler --- *)

let samples : Printexc.raw_backtrace list ref = ref []

(* What a sampled run did: its stacks, and how many iterations of the
   workload completed in how much wall time.  Samples cover a fixed wall
   time, so a line's share alone cannot show whether anything got faster;
   the iteration rate is the denominator that can. *)
type sampling = {
  stacks : Printexc.raw_backtrace list;
  iterations : int;
  wall_s : float;
}

let sampled seconds f =
  samples := [];
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ -> samples := Printexc.get_callstack 64 :: !samples));
  let tick = { Unix.it_interval = 0.001; it_value = 0.001 } in
  ignore (Unix.setitimer Unix.ITIMER_REAL tick : Unix.interval_timer_status);
  let start = Unix.gettimeofday () in
  let stop = start +. seconds in
  let iterations = ref 0 in
  while Unix.gettimeofday () < stop do
    f ();
    incr iterations
  done;
  let wall_s = Unix.gettimeofday () -. start in
  let off = { Unix.it_interval = 0.0; it_value = 0.0 } in
  ignore (Unix.setitimer Unix.ITIMER_REAL off : Unix.interval_timer_status);
  Sys.set_signal Sys.sigalrm Sys.Signal_default;
  { stacks = !samples; iterations = !iterations; wall_s }

(* The located frames of one sample, innermost first, without this file's
   own (the handler on top, the driving loop below). *)
let frames raw =
  match Printexc.backtrace_slots raw with
  | None -> []
  | Some slots ->
      let located =
        List.filter_map
          (fun slot ->
            match Printexc.Slot.location slot with
            | Some l ->
                Some (Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number)
            | None -> None)
          (Array.to_list slots)
      in
      List.filter
        (fun loc -> not (String.starts_with ~prefix:"bench/hotspots.ml" loc))
        located

let is_engine loc = String.starts_with ~prefix:"lib/" loc
let is_stdlib loc = not (String.contains loc '/')

(* The first [n] elements of [l]. *)
let rec take n = function x :: l when n > 0 -> x :: take (n - 1) l | _ -> []

let report ~name ~top { stacks = raws; iterations; wall_s } =
  let self = Hashtbl.create 256 and incl = Hashtbl.create 1024 in
  (* Per self line, how often each context led to it: for a stdlib line the
     chain of the five innermost engine frames below it, for any other
     line its caller. *)
  let contexts = Hashtbl.create 256 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let n = ref 0 in
  List.iter
    (fun raw ->
      match frames raw with
      | [] -> ()
      | inner :: rest as fs ->
          incr n;
          bump self inner;
          let context =
            if is_stdlib inner then
              match take 5 (List.filter is_engine rest) with
              | [] -> None
              | chain -> Some (String.concat " <- " chain)
            else match rest with caller :: _ -> Some caller | [] -> None
          in
          (match context with
          | Some c ->
              let tbl =
                match Hashtbl.find_opt contexts inner with
                | Some tbl -> tbl
                | None ->
                    let tbl = Hashtbl.create 8 in
                    Hashtbl.replace contexts inner tbl;
                    tbl
              in
              bump tbl c
          | None -> ());
          List.iter (bump incl) (List.sort_uniq String.compare fs))
    raws;
  let ranked tbl =
    List.sort
      (fun (a, x) (b, y) -> match Int.compare y x with 0 -> String.compare a b | c -> c)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let pct c = 100.0 *. float_of_int c /. float_of_int (max 1 !n) in
  let print title tbl ~with_context =
    Printf.printf "  %s\n" title;
    List.iteri
      (fun i (loc, c) ->
        if i < top then begin
          Printf.printf "    %6d %5.1f%%  %s" c (pct c) loc;
          (match Hashtbl.find_opt contexts loc with
          | Some tbl when with_context ->
              if is_stdlib loc then
                List.iter
                  (fun (chain, k) -> Printf.printf "\n      %6d  <- %s" k chain)
                  (take 3 (ranked tbl))
              else (
                match ranked tbl with
                | (caller, k) :: _ -> Printf.printf "  <- %s (%d)" caller k
                | [] -> ())
          | _ -> ());
          print_newline ()
        end)
      (ranked tbl)
  in
  Printf.printf "%s: %d samples, %d iterations in %.2f s (%.2f iterations/s)\n"
    name !n iterations wall_s
    (float_of_int iterations /. Float.max wall_s 1e-9);
  print "self (stdlib: three commonest engine chains; else commonest caller)" self
    ~with_context:true;
  print "inclusive" incl ~with_context:false;
  print_newline ()

(* --- the workloads --- *)

let cold_mix db ~n_patients ~n_providers =
  let pct n q = max 1 (n * q / 100) in
  let sel k = Printf.sprintf "select pa.age from pa in Patients where pa.num < %d" k in
  let sels =
    List.concat_map
      (fun q ->
        let text = sel (pct n_patients q) in
        [
          (fun () -> Planner.run ~force_seq:true db text);
          (fun () -> Planner.run ~force_sorted:false db text);
          (fun () -> Planner.run ~force_sorted:true db text);
        ])
      [ 1; 5; 10; 50; 90 ]
  in
  let count =
    Printf.sprintf "select count(pa) from pa in Patients where pa.num < %d"
      (n_patients / 2)
  in
  let joins =
    List.concat_map
      (fun q ->
        let text =
          Printf.sprintf
            "select [p.name, pa.age] from p in Providers, pa in p.clients where \
             pa.mrn < %d and p.upin < %d"
            (pct n_patients q) (pct n_providers q)
        in
        List.map
          (fun algo () -> Planner.run ~force_algo:algo db text)
          Plan.[ NL; NOJOIN; PHJ; CHJ; PHHJ; SMJ ])
      [ 10; 50; 90 ]
  in
  let queries = Array.of_list (((fun () -> Planner.run db count) :: sels) @ joins) in
  let next = ref 0 in
  fun () ->
    Database.cold_restart db;
    let r = queries.(!next mod Array.length queries) () in
    Tb_query.Query_result.dispose r;
    incr next

(* The update loop keeps each patient's attributes in a model, as
   e2ebench does, so the samples land on the write path rather than on
   reads made only to build the next value.  The model is read once,
   before timing, into flat arrays that add little for the GC to mark; an
   abort restores what the transaction overwrote. *)
let update_loop db patients =
  let rng = Random.State.make [| 19 |] in
  let n = Array.length patients in
  let read j =
    match snd (Database.read_object db patients.(j)) with
    | Value.Tuple fields -> fields
    | _ -> failwith "hotspots: patient is not a tuple"
  in
  let attr name j = List.assoc name (read j) in
  let int name j =
    match attr name j with Value.Int k -> k | _ -> failwith "hotspots: not an int"
  in
  let name = Array.init n (fun j -> Value.to_string_exn (attr "name" j)) in
  let mrn = Array.init n (int "mrn") and age = Array.init n (int "age") in
  let sex = Array.init n (fun j -> Value.to_char (attr "sex" j)) in
  let rnd = Array.init n (int "random_integer") and num = Array.init n (int "num") in
  let pcp = Array.init n (attr "primary_care_provider") in
  let undo = ref [] in
  let write j ~num:nm ~age:ag =
    undo := (j, num.(j), age.(j)) :: !undo;
    num.(j) <- nm;
    age.(j) <- ag;
    Database.update_object db patients.(j)
      (Value.Tuple
         [
           ("name", Value.String name.(j));
           ("mrn", Value.Int mrn.(j));
           ("age", Value.Int ag);
           ("sex", Value.Char sex.(j));
           ("random_integer", Value.Int rnd.(j));
           ("num", Value.Int nm);
           ("primary_care_provider", pcp.(j));
         ])
  in
  let round = ref 0 in
  fun () ->
    let h = Database.begin_txn db in
    for c = 0 to 9 do
      let a = Random.State.int rng n in
      if c mod 2 = 0 then begin
        let z = Random.State.int rng n in
        let na = num.(a) and nz = num.(z) in
        write a ~num:nz ~age:age.(a);
        write z ~num:na ~age:age.(z)
      end
      else write a ~num:num.(a) ~age:(Random.State.int rng 100)
    done;
    incr round;
    if !round mod 10 = 0 then begin
      Database.abort_txn h;
      List.iter
        (fun (j, nm, ag) ->
          num.(j) <- nm;
          age.(j) <- ag)
        !undo
    end
    else Database.commit_txn h;
    undo := []

let build ~scale txn_mode =
  let cfg = Generator.config ~scale `Deep Generator.Class_clustered in
  Generator.build
    ~cost:(Tb_sim.Cost_model.scaled scale)
    { cfg with Generator.txn_mode }

let () =
  let seconds = ref 4.0 and scale = ref 40 and top = ref 25 and which = ref "all" in
  let rec parse = function
    | [] -> ()
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some v when v > 0.0 -> seconds := v
        | _ -> usage ());
        parse rest
    | "--scale" :: s :: rest ->
        (match int_of_string_opt s with Some v when v > 0 -> scale := v | _ -> usage ());
        parse rest
    | "--top" :: s :: rest ->
        (match int_of_string_opt s with Some v when v > 0 -> top := v | _ -> usage ());
        parse rest
    | ("cold" | "update" | "all") as w :: rest ->
        which := w;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let want w = !which = "all" || !which = w in
  if want "cold" then begin
    let b = build ~scale:!scale Transaction.Load_off in
    let run =
      cold_mix b.Generator.db
        ~n_patients:(Array.length b.Generator.patients)
        ~n_providers:(Array.length b.Generator.providers)
    in
    report ~name:"paper-cold query mix" ~top:!top (sampled !seconds run)
  end;
  if want "update" then begin
    let b = build ~scale:!scale Transaction.Standard in
    let run = update_loop b.Generator.db b.Generator.patients in
    report ~name:"standard-mode update/commit loop" ~top:!top (sampled !seconds run)
  end
