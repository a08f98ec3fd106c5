(** Deterministic pseudo-random number generation.

    Every experiment in this repository must be reproducible bit-for-bit,
    so all randomness flows through explicitly seeded generators rather
    than the global [Random] state.  The generator is SplitMix64
    (Steele, Lea & Flood, OOPSLA 2014): tiny state, excellent statistical
    quality for simulation purposes, and trivially splittable so that
    independent subsystems can derive independent streams from one seed. *)

type t
(** Mutable generator state: the 64-bit SplitMix64 state, held unboxed,
    so no draw allocates. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed.  Equal
    seeds yield equal streams. *)

val split : t -> t
(** [split t] derives a new generator whose stream is statistically
    independent of [t]'s future output.  Advances [t]. *)

val bits53 : t -> int
(** [bits53 t] is the 53 high bits of the next raw output, in
    [\[0, 2^53)].  Other modules build their floats from this draw:
    closure-mode [ocamlopt] boxes a float returned by any call it does
    not inline, and an [int] result needs no box.
    [float_of_int (bits53 t) *. 0x1p-53] is a uniform double in
    [\[0, 1)]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)
