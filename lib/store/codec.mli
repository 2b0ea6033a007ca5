(** Binary encoding of values into heap-file records.

    The encoding follows the paper's size arithmetic: 4 bytes per integer,
    8 per object reference or address (Section 2), strings as length-prefixed
    bytes.  Record sizes therefore reproduce the page counts the paper
    reports (~30 providers / ~57 patients per 4K page). *)

(** [encoded_size v] is the exact number of bytes [encode] will produce. *)
val encoded_size : Value.t -> int

val encode : Value.t -> bytes

(** [decode b ~pos] reads one value starting at [pos] and returns it with
    the position one past its encoding.
    Raises [Invalid_argument] on malformed input. *)
val decode : bytes -> pos:int -> Value.t * int

(** [decode_value b ~pos] is [fst (decode b ~pos)]; a scalar is decoded
    without the pair.  Raises [Invalid_argument] on malformed input. *)
val decode_value : bytes -> pos:int -> Value.t

(** [skip b ~pos] returns the position one past the value starting at
    [pos] without allocating it — how the lazy record view finds field
    offsets.  Raises [Invalid_argument] on malformed input. *)
val skip : bytes -> pos:int -> int

(** [decode_exn b] decodes a whole buffer holding exactly one value. *)
val decode_exn : bytes -> Value.t

(** {2 Wire tags}

    The one-byte type tag that opens every encoded value, exported so the
    packed execution path ({!Tb_query.Packed}) can compare encoded values
    in place without decoding them. *)

val tag_nil : int
val tag_int : int
val tag_real : int
val tag_bool : int
val tag_char : int
val tag_string : int
val tag_ref : int
val tag_tuple : int
val tag_set : int
val tag_list : int
val tag_big_set : int
