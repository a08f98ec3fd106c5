(** Flow hashing.

    The kernel hashes a connection's 4-tuple once at SYN time and
    reuses that value both for RSS queue selection and for reuseport
    socket selection (the "precomputed by the kernel" hash that Algo 2
    feeds to [reciprocal_scale]).  We implement Jenkins' jhash — the
    same family Linux uses for [inet_ehashfn] — so collision behaviour
    under heavy-hitter tuples is realistic. *)

val of_four_tuple : ?seed:int -> Addr.four_tuple -> int
(** Hash a 4-tuple to a non-negative 32-bit value.  A fixed default
    seed keeps runs reproducible; pass [seed] to model the per-boot
    randomization of the real kernel. *)
