(** Deterministic pseudo-random number generator.

    A 48-bit linear congruential generator with the same parameters as the
    Unix [lrand48] family, which is what the paper's loading programs used to
    randomize the doctor/patient relationship (Section 2).  Determinism
    matters: every experiment must be exactly reproducible from a seed. *)

type t

(** [create seed] returns a generator initialised from [seed]. *)
val create : int -> t

(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [\[0., bound)]. *)
val float : t -> float -> float

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [permutation t n] is a random permutation of [0 .. n-1]. *)
val permutation : t -> int -> int array

