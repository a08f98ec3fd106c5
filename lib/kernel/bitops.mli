(** Bit-twiddling primitives used by the in-kernel dispatcher.

    Hermes' eBPF program cannot loop, so counting and locating set bits
    must use branch-free "Bit Twiddling Hacks" (the paper cites
    Stanford's bithacks page and the Hamming-weight construction).
    These run on 64-bit bitmaps where bit [i] set means worker [i]
    passed the userspace coarse filter. *)

val popcount64 : int64 -> int
(** Number of set bits, by the parallel-SWAR Hamming-weight method. *)

val popcount32 : int -> int
(** Same construction on a native [int] holding a value below [2^32] —
    allocation-free (no [int64] boxing), for hot paths that keep a
    64-bit bitmap as two native halves.  Bits 32 and up are ignored. *)

val find_nth_set : int64 -> int -> int
(** [find_nth_set bm n] is the position (0-based, LSB = 0) of the
    [n]-th set bit, counting from 1 at the least significant set bit.
    Returns [-1] if fewer than [n] bits are set or [n < 1].
    Implemented as a branchless rank-select over SWAR partial sums —
    the construction from the bithacks "Select the bit position given a
    count" entry, which is expressible in eBPF. *)

val reciprocal_scale : hash:int -> n:int -> int
(** Linux's [reciprocal_scale]: maps a 32-bit hash uniformly onto
    [\[0, n)] with a multiply-shift instead of a division.  Matches the
    kernel's use in reuseport socket selection.  @raise Invalid_argument
    if [n <= 0]. *)

val set_bit : int64 -> int -> int64
val clear_bit : int64 -> int -> int64

val bits_of_list : int list -> int64
(** Bitmap with the listed positions set.  @raise Invalid_argument for
    positions outside [0, 63]. *)
