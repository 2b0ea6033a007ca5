(* A growable stack of Rids and the in-place sort a sorted index scan runs
   over its own slice of it.  A run remembers the top it started at, pushes
   its Rids above it, sorts and streams them, and truncates back, so runs
   nest: an inner run works above the outer one's slice, and a growth
   copies the outer slice along while the outer run keeps reading the
   array it started with.  The array and the sort's two tables are kept
   between runs, so once a run of a given size has happened, a sorted run
   allocates nothing. *)

type t = {
  mutable rids : Rid.t array;
  mutable top : int;
  (* The American-flag sort's bucket heads and ends, made on the first
     sort long enough to need them. *)
  mutable heads : int array;
  mutable ends : int array;
}

let create () = { rids = [||]; top = 0; heads = [||]; ends = [||] }
let length t = t.top
let contents t = t.rids

let truncate t n =
  if n < 0 || n > t.top then invalid_arg "Rid_buf.truncate";
  t.top <- n

(* Grow by half, so a retained buffer is at most 1.5 times its longest run. *)
let push t rid =
  let n = Array.length t.rids in
  if t.top = n then begin
    let grown = Array.make (Int.max 64 (n + (n / 2))) Rid.nil in
    Array.blit t.rids 0 grown 0 n;
    t.rids <- grown
  end;
  t.rids.(t.top) <- rid;
  t.top <- t.top + 1

(* MSD radix sort, 8 bits a digit, over only the bit range in which the
   keys differ.  Nil (-1) is the one negative Rid, so the digits are taken
   from [x + 1] read as an unsigned 63-bit word: nil becomes 0 and the
   largest Rid (max_int) wraps to 2^62, still above every other key.
   Rids are distinct, so any correct sort gives the one order. *)
let radix_bits = 8
let radix = 1 lsl radix_bits

(* Buckets this short (and short runs: an NL join sorts each provider's
   few clients) are finished by insertion. *)
let small = 32

let[@inline] digit (x : Rid.t) shift = (((x :> int) + 1) lsr shift) land (radix - 1)

let insertion_sort (a : Rid.t array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && (a.(!j) :> int) > (x :> int) do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Sort [a.(lo .. hi - 1)], whose keys agree above digit [shift], on that
   digit: count, then cycle each key into its bucket in place, then sort
   each bucket on the next digit down while bits below [shift] still
   differ ([low] is the lowest differing bit).  The buckets are found
   again by a scan, so the tables serve every depth. *)
let rec flag_sort t (a : Rid.t array) lo hi shift low =
  if hi - lo <= small then insertion_sort a lo hi
  else begin
    let heads = t.heads and ends = t.ends in
    Array.fill ends 0 radix 0;
    for i = lo to hi - 1 do
      let d = digit a.(i) shift in
      ends.(d) <- ends.(d) + 1
    done;
    let sum = ref lo in
    for d = 0 to radix - 1 do
      heads.(d) <- !sum;
      sum := !sum + ends.(d);
      ends.(d) <- !sum
    done;
    for d = 0 to radix - 1 do
      while heads.(d) < ends.(d) do
        let x = ref a.(heads.(d)) in
        let b = ref (digit !x shift) in
        while !b <> d do
          let h = heads.(!b) in
          let y = a.(h) in
          a.(h) <- !x;
          heads.(!b) <- h + 1;
          x := y;
          b := digit y shift
        done;
        a.(heads.(d)) <- !x;
        heads.(d) <- heads.(d) + 1
      done
    done;
    if shift > low then begin
      let next = Int.max 0 (shift - radix_bits) in
      let i = ref lo in
      while !i < hi do
        let d = digit a.(!i) shift in
        let j = ref (!i + 1) in
        while !j < hi && digit a.(!j) shift = d do
          incr j
        done;
        if !j - !i > 1 then flag_sort t a !i !j next low;
        i := !j
      done
    end
  end

let sort t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.top then invalid_arg "Rid_buf.sort";
  let a = t.rids in
  if len <= small then insertion_sort a pos (pos + len)
  else begin
    let any = ref 0 and all = ref (-1) in
    for i = pos to pos + len - 1 do
      let k = (a.(i) :> int) + 1 in
      any := !any lor k;
      all := !all land k
    done;
    let differ = !any lxor !all in
    if differ <> 0 then begin
      let low = ref 0 and high = ref 62 in
      while (differ lsr !low) land 1 = 0 do
        incr low
      done;
      while (differ lsr !high) land 1 = 0 do
        decr high
      done;
      if Array.length t.heads = 0 then begin
        t.heads <- Array.make radix 0;
        t.ends <- Array.make radix 0
      end;
      flag_sort t a pos (pos + len) (Int.max 0 (!high - radix_bits + 1)) !low
    end
  end
