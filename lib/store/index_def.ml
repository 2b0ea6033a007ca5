type t = {
  id : int;
  name : string;
  cls : string;
  attr : string;
  tree : Btree.t;
  mutable clustering : float;
  mutable keys : key_stats;
}

and key_stats = { ks_lo : int; ks_hi : int; ks_histogram : histogram option }
and histogram = { bucket_width : int; counts : int array; total : int }

let make ~id ~name ~cls ~attr ~tree =
  {
    id;
    name;
    cls;
    attr;
    tree;
    clustering = 1.0;
    keys = { ks_lo = 0; ks_hi = 0; ks_histogram = None };
  }

(* A refresh replaces [keys] whole, never edits it: whoever holds the old
   record (a statistics snapshot) keeps what it read. *)
let refresh_stats t =
  t.clustering <- Btree.clustering_factor t.tree;
  let lo, hi = Option.value (Btree.key_bounds t.tree) ~default:(0, 0) in
  t.keys <- { t.keys with ks_lo = lo; ks_hi = hi }

let build_histogram t ~buckets =
  if buckets <= 0 then invalid_arg "Index_def.build_histogram: buckets";
  refresh_stats t;
  let lo_key = t.keys.ks_lo in
  let span = t.keys.ks_hi - lo_key + 1 in
  let bucket_width = max 1 ((span + buckets - 1) / buckets) in
  let counts = Array.make buckets 0 in
  let total = ref 0 in
  Btree.iter t.tree (fun key _ ->
      let b = min (buckets - 1) ((key - lo_key) / bucket_width) in
      counts.(b) <- counts.(b) + 1;
      incr total);
  t.keys <- { t.keys with ks_histogram = Some { bucket_width; counts; total = !total } }

let uniform_below ks k =
  if ks.ks_hi <= ks.ks_lo then if k > ks.ks_lo then 1.0 else 0.0
  else
    let span = float_of_int (ks.ks_hi - ks.ks_lo + 1) in
    Float.max 0.0 (Float.min 1.0 (float_of_int (k - ks.ks_lo) /. span))

let histogram_below ks h k =
  if h.total = 0 then 0.0
  else if k <= ks.ks_lo then 0.0
  else begin
    let offset = k - ks.ks_lo in
    let full_buckets = min (Array.length h.counts) (offset / h.bucket_width) in
    let below = ref 0.0 in
    for b = 0 to full_buckets - 1 do
      below := !below +. float_of_int h.counts.(b)
    done;
    (* Linear interpolation inside the bucket the boundary falls in. *)
    if full_buckets < Array.length h.counts then begin
      let into = offset - (full_buckets * h.bucket_width) in
      below :=
        !below
        +. float_of_int h.counts.(full_buckets)
           *. float_of_int into /. float_of_int h.bucket_width
    end;
    Float.min 1.0 (!below /. float_of_int h.total)
  end

let selectivity_below ks k =
  match ks.ks_histogram with
  | Some h -> histogram_below ks h k
  | None -> uniform_below ks k

let key_window ks ~lo ~hi =
  let below = match hi with Some k -> selectivity_below ks k | None -> 1.0 in
  let above = match lo with Some k -> selectivity_below ks k | None -> 0.0 in
  below -. above

let is_clustered t = t.clustering >= 0.8
