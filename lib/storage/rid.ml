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
   of the unpacked fields, not of the packed word: hybrid partitioning
   and exchange routing follow it. *)
let hash t =
  let mix h x = (h lxor x) * 0x0100_0193 in
  mix (mix (mix 0x811c_9dc5 (file t)) (page t)) (slot t) land max_int

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
