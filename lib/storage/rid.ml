(* A Rid packed into one immediate int, following Page_id: slot in the low
   16 bits, page in the next 26, file in the 20 above them (62 bits, so a
   packed Rid is never negative).  The order of the fields in the word is
   the physical order, so Int.compare on the packed ints is the
   lexicographic (file, page, slot) order, and nil = -1 sorts first. *)

type t = int

let slot_bits = 16
let page_bits = 26
let file_bits = 20
let slot_mask = (1 lsl slot_bits) - 1
let page_mask = (1 lsl page_bits) - 1
let page_shift = slot_bits
let file_shift = slot_bits + page_bits
let max_file = (1 lsl file_bits) - 1
let disk_file_limit = 0x10000
let max_page = page_mask
let max_slot = slot_mask

let make ~file ~page ~slot =
  if file < 0 || file > max_file then invalid_arg "Rid.make: file out of range";
  if page < 0 || page > max_page then invalid_arg "Rid.make: page out of range";
  if slot < 0 || slot > max_slot then invalid_arg "Rid.make: slot out of range";
  (file lsl file_shift) lor (page lsl page_shift) lor slot

let nil = -1
let is_nil t = t < 0

(* The accessors answer -1 for nil, so [hash nil] mixes (-1, -1, -1). *)
let file t = if t < 0 then -1 else t lsr file_shift
let page t = if t < 0 then -1 else (t lsr page_shift) land page_mask
let slot t = if t < 0 then -1 else t land slot_mask
let compare = Int.compare
let equal : t -> t -> bool = Int.equal

(* FNV-1a over the (file, page, slot) triple: deterministic across runs and
   OCaml versions (Hashtbl.hash is specified only per-version), masked
   non-negative so [hash t mod n] is a valid bucket index.  It is the hash
   of the unpacked fields, not of the packed word: Mem_hash and
   Handle_table bucket order, hybrid partitioning and exchange routing all
   follow it. *)
let hash t =
  let mix h x = (h lxor x) * 0x0100_0193 in
  mix (mix (mix 0x811c_9dc5 (file t)) (page t)) (slot t) land max_int

(* LSD radix sort, 8 bits a digit, over only the bit range in which the
   keys differ.  Nil (-1) is the one negative Rid, so the digits are taken
   from [t + 1] read as an unsigned 63-bit word: nil becomes 0 and the
   largest Rid (max_int) wraps to 2^62, still above every other key. *)
let radix_bits = 8
let radix = 1 lsl radix_bits

(* Short runs (an NL join sorts each provider's few clients) are sorted in
   place: the radix passes would allocate a count table and a scratch
   copy on every call. *)
let insertion_sort (a : t array) n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let radix_pass (src : t array) (dst : t array) n counts shift =
  Array.fill counts 0 radix 0;
  for i = 0 to n - 1 do
    let d = ((src.(i) + 1) lsr shift) land (radix - 1) in
    counts.(d) <- counts.(d) + 1
  done;
  let sum = ref 0 in
  for d = 0 to radix - 1 do
    let c = counts.(d) in
    counts.(d) <- !sum;
    sum := !sum + c
  done;
  for i = 0 to n - 1 do
    let x = src.(i) in
    let d = ((x + 1) lsr shift) land (radix - 1) in
    dst.(counts.(d)) <- x;
    counts.(d) <- counts.(d) + 1
  done

let sort (a : t array) =
  let n = Array.length a in
  if n <= 32 then insertion_sort a n
  else begin
    let any = ref 0 and all = ref (-1) in
    for i = 0 to n - 1 do
      any := !any lor (a.(i) + 1);
      all := !all land (a.(i) + 1)
    done;
    let differ = !any lxor !all in
    if differ <> 0 then begin
      let lo = ref 0 and hi = ref 62 in
      while (differ lsr !lo) land 1 = 0 do incr lo done;
      while (differ lsr !hi) land 1 = 0 do decr hi done;
      let counts = Array.make radix 0 in
      let src = ref a and dst = ref (Array.make n nil) in
      let shift = ref !lo in
      while !shift <= !hi do
        radix_pass !src !dst n counts !shift;
        let s = !src in
        src := !dst;
        dst := s;
        shift := !shift + radix_bits
      done;
      if !src != a then Array.blit !src 0 a 0 n
    end
  end

(* 2 bytes of file id, 4 of page number, 2 of slot: 8 bytes, as in the
   paper's size accounting. Nil encodes as all-ones. *)
let on_disk_bytes = 8

let encode_into t b ~pos =
  if is_nil t then Bytes.fill b pos on_disk_bytes '\xff'
  else begin
    Bytes.set_uint16_le b pos (file t);
    Bytes.set_int32_le b (pos + 2) (Int32.of_int (page t));
    Bytes.set_uint16_le b (pos + 6) (slot t)
  end

let encode t =
  let b = Bytes.create on_disk_bytes in
  encode_into t b ~pos:0;
  b

(* [make]'s checks, minus the two a u16 field always passes (max_file and
   max_slot are at least 0xffff): B+-tree walks decode a Rid per entry. *)
let decode b ~pos =
  let file = Bytes.get_uint16_le b pos in
  if file = 0xffff then nil
  else
    let page = Int32.to_int (Bytes.get_int32_le b (pos + 2)) in
    if page < 0 || page > max_page then invalid_arg "Rid.make: page out of range";
    (file lsl file_shift) lor (page lsl page_shift) lor Bytes.get_uint16_le b (pos + 6)

let pp ppf t =
  if is_nil t then Format.pp_print_string ppf "@nil"
  else Format.fprintf ppf "@%d:%d.%d" (file t) (page t) (slot t)

let to_string t = Format.asprintf "%a" pp t
