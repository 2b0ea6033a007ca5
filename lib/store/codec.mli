(** Binary encoding of values into heap-file records.

    The encoding follows the paper's size arithmetic: 4 bytes per integer,
    8 per object reference or address (Section 2), strings as length-prefixed
    bytes.  Record sizes therefore reproduce the page counts the paper
    reports (~30 providers / ~57 patients per 4K page). *)

(** [encoded_size v] is the exact number of bytes [encode] will produce. *)
val encoded_size : Value.t -> int

val encode : Value.t -> bytes

(** [encode_into v buf ~pos] writes [encode v] at [pos] and returns the
    position one past it, allocating nothing.  [buf] must have
    [encoded_size v] bytes of room from [pos]. *)
val encode_into : Value.t -> bytes -> pos:int -> int

(** [decode b ~pos] reads one value starting at [pos] and returns it with
    the position one past its encoding.
    Raises [Invalid_argument] on malformed input. *)
val decode : bytes -> pos:int -> Value.t * int

(** [decode_value b ~pos] is [fst (decode b ~pos)]; a scalar is decoded
    without the pair.  Raises [Invalid_argument] on malformed input. *)
val decode_value : bytes -> pos:int -> Value.t

(** [int_at b ~pos] is the integer encoded at [pos], read in place.
    Raises [Invalid_argument] unless an [Int] is encoded there. *)
val int_at : bytes -> pos:int -> int

(** [skip b ~pos] returns the position one past the value starting at
    [pos] without allocating it — how the lazy record view finds field
    offsets.  Raises [Invalid_argument] on malformed input. *)
val skip : bytes -> pos:int -> int

(** [decode_exn b] decodes a whole buffer holding exactly one value. *)
val decode_exn : bytes -> Value.t

(** {2 In-memory size}

    [mem_bytes v] is the in-memory size of a result element: 1 byte for
    [Nil], [Bool] and [Char], 4 per [Int], 8 per [Real], [Ref] and
    [Big_set], a string's length, and the sum over a tuple's fields or a
    collection's elements (field names are shared structure, not per-row
    storage).  [mem_bytes_at b ~pos] is [mem_bytes] of the value encoded
    at [pos], read in place without building it; it raises
    [Invalid_argument] on malformed input. *)

val mem_bytes : Value.t -> int
val mem_bytes_at : bytes -> pos:int -> int

(** {2 Tuples field by field}

    Writers and readers for a tuple encoded one field at a time, with
    nothing built: [tuple_header_into], then per field [field_name_into]
    and the value ([encode_into], or [ref_into] for a reference) give
    exactly the bytes [encode] makes of the whole [Value.Tuple].  Each
    writer returns the position one past what it wrote. *)

(** Bytes of a tuple header, of a field name's encoding, and of an
    encoded reference. *)
val tuple_header_bytes : int

val field_name_bytes : string -> int
val ref_bytes : int
val tuple_header_into : fields:int -> bytes -> pos:int -> int
val field_name_into : string -> bytes -> pos:int -> int

(** [ref_into rid] writes what [encode_into (Value.Ref rid)] writes. *)
val ref_into : Tb_storage.Rid.t -> bytes -> pos:int -> int

(** [tuple_fields b ~pos] is the field count of the tuple encoded at
    [pos]; raises [Invalid_argument] unless a tuple is encoded there. *)
val tuple_fields : bytes -> pos:int -> int

(** [skip_field_name b ~pos] is the position of the value after the field
    name encoded at [pos]. *)
val skip_field_name : bytes -> pos:int -> int

(** [ref_at b ~pos] is the Rid of the reference encoded at [pos], read in
    place; raises [Invalid_argument] unless a [Ref] is encoded there. *)
val ref_at : bytes -> pos:int -> Tb_storage.Rid.t

(** {2 Wire tags}

    The one-byte type tag that opens every encoded value, exported so the
    packed execution path ({!Tb_query.Packed}) can compare encoded values
    in place without decoding them. *)

val tag_nil : int
val tag_int : int
val tag_string : int
val tag_ref : int
