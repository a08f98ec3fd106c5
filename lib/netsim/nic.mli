(** NIC receive-side scaling.

    The NIC sprays packets across per-core ring buffers by hashing the
    4-tuple through an indirection table — the mechanism Fig. 7 shows
    balancing *packets* perfectly while CPU time stays skewed, which
    motivates scheduling on userspace status instead. *)

type t

val create : queues:int -> t
(** A NIC with [queues] RX queues and an RSS indirection table of 128
    entries initialized round-robin, as real NICs default to. *)

val receive : t -> Packet.t -> int
(** Route a packet: returns the queue index and increments that
    queue's packet counter. *)

val packets_per_queue : t -> int array
