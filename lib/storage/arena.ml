(* Stowed join sides: payload bytes and two int stacks, all in fixed-size
   chunks under one stack discipline.  A chunk is made the first time the
   stack reaches it and kept, so growth never copies, and an offset or a
   cell index (chunk number in the high bits, position in the low ones)
   stays valid for as long as nothing truncates below it.

   What survives a run is capped: when the bytes or a stack pop back to
   empty, the chunks past the first few are dropped.  A join of a few
   thousand rows then runs on retained space every time, while a
   60,000-row one takes fresh chunks for its excess and does not pin
   megabytes of scratch for the life of the database. *)

let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let kept_chunks = 4
let cell_bits = 13
let cell_mask = (1 lsl cell_bits) - 1

type stack = {
  mutable cells : int array array;  (* [cells.(0 .. made - 1)] are made *)
  mutable made : int;
  mutable len : int;
  kept : int;  (* chunks that survive a pop to empty *)
}

type t = {
  mutable chunks : Bytes.t array;  (* [chunks.(0 .. made - 1)] are made *)
  mutable made : int;
  mutable top : int;
  entries : stack;
  slots : stack;
}

let new_stack kept = { cells = [||]; made = 0; len = 0; kept }

let create () =
  { chunks = [||]; made = 0; top = 0; entries = new_stack 4; slots = new_stack 2 }

let top t = t.top
let pos off = off land chunk_mask
let buf t off = t.chunks.(off lsr chunk_bits)

let truncate t off =
  if off < 0 || off > t.top then invalid_arg "Arena.truncate";
  t.top <- off;
  if off = 0 && t.made > kept_chunks then begin
    Array.fill t.chunks kept_chunks (t.made - kept_chunks) Bytes.empty;
    t.made <- kept_chunks
  end

(* Room in a chunk table for chunk [c]: the table doubles. *)
let with_room table c empty =
  let have = Array.length table in
  if c < have then table
  else begin
    let grown = Array.make (Int.max 4 (Int.max (c + 1) (2 * have))) empty in
    Array.blit table 0 grown 0 have;
    grown
  end

let alloc t n =
  if n < 0 || n > chunk_size then invalid_arg "Arena.alloc";
  let off =
    if pos t.top + n > chunk_size then (t.top lor chunk_mask) + 1 else t.top
  in
  let chunk = off lsr chunk_bits in
  if chunk >= t.made then begin
    t.chunks <- with_room t.chunks chunk Bytes.empty;
    t.chunks.(chunk) <- Bytes.create chunk_size;
    t.made <- chunk + 1
  end;
  t.top <- off + n;
  off

let entries t = t.entries
let slots t = t.slots
let length s = s.len
let get s i = s.cells.(i lsr cell_bits).(i land cell_mask)
let set s i x = s.cells.(i lsr cell_bits).(i land cell_mask) <- x

let grow s k =
  if k < 0 then invalid_arg "Arena.grow";
  let first = s.len in
  let need = first + k in
  if need > s.made lsl cell_bits then begin
    let last = (need - 1) lsr cell_bits in
    s.cells <- with_room s.cells last [||];
    for c = s.made to last do
      s.cells.(c) <- Array.make (1 lsl cell_bits) 0
    done;
    s.made <- last + 1
  end;
  s.len <- need;
  first

let shrink s n =
  if n < 0 || n > s.len then invalid_arg "Arena.shrink";
  s.len <- n;
  if n = 0 && s.made > s.kept then begin
    Array.fill s.cells s.kept (s.made - s.kept) [||];
    s.made <- s.kept
  end
