(* Spans around calls into the engine's public functions, recorded from
   outside the engine: the traced run's per-layer decomposition.  Spans stay
   in memory until the round ends; [layers] folds them into per-layer self
   time and self allocation, [write_chrome] dumps them as Chrome trace
   events.  Times come from the monotonic clock, in ns. *)

type span = {
  name : string;
  id : int;
  parent : int;  (** -1 for an operation's root span *)
  op : int;
  start_ns : int64;
  end_ns : int64;
  alloc : float;  (** words allocated inside the span, children included *)
}

type t = {
  mutable spans : span list;
  mutable next_id : int;
  mutable current : int;
  mutable ops : int;  (** operations begun, the id of the current one *)
}

let create () = { spans = []; next_id = 0; current = -1; ops = 0 }

(* Words this domain has allocated so far: minor heap plus direct major
   allocations, promotions not counted twice. *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record t name f =
  let parent = t.current in
  let id = t.next_id in
  t.next_id <- id + 1;
  t.current <- id;
  let a0 = allocated () in
  let t0 = Monotonic_clock.now () in
  let finish () =
    let t1 = Monotonic_clock.now () in
    let a1 = allocated () in
    t.current <- parent;
    t.spans <-
      { name; id; parent; op = t.ops; start_ns = t0; end_ns = t1; alloc = a1 -. a0 }
      :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* [span tr name f] runs [f], inside a span named [name] when tracing. *)
let span tr name f = match tr with None -> f () | Some t -> record t name f

(* Name of every operation's root span; its self time is the harness's. *)
let op_name = "op"

let operation t f =
  t.ops <- t.ops + 1;
  record t op_name f

let dur s = Int64.to_float (Int64.sub s.end_ns s.start_ns)

(* Per span name: (self ns, self alloc words).  Self is the span minus its
   direct children, so the self times of one operation's spans sum to its
   root span. *)
let layers t =
  let add tbl k (ns, alloc) =
    let ns0, alloc0 = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl k) in
    Hashtbl.replace tbl k (ns0 +. ns, alloc0 +. alloc)
  in
  let children = Hashtbl.create 4096 in
  List.iter (fun s -> if s.parent >= 0 then add children s.parent (dur s, s.alloc)) t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let ns, alloc = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt children s.id) in
      add by_name s.name (dur s -. ns, s.alloc -. alloc))
    t.spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(* Total duration of the root spans: the traced operation time. *)
let op_ns t =
  List.fold_left (fun acc s -> if s.parent < 0 then acc +. dur s else acc) 0.0 t.spans

(* Spans of the first 1,000 operations, which keeps the file of a
   point-lookup or update-mix round to a few MB. *)
let write_chrome t path =
  let spans = List.filter (fun (s : span) -> s.op <= 1000) (List.rev t.spans) in
  let base =
    List.fold_left (fun acc s -> min acc s.start_ns) Int64.max_int spans
  in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d,\"alloc_words\":%.0f}}"
        (if i = 0 then "" else ",")
        s.name
        (Int64.to_float (Int64.sub s.start_ns base) /. 1e3)
        (dur s /. 1e3) s.op s.id s.parent s.alloc)
    spans;
  output_string oc "\n]}\n";
  close_out oc
