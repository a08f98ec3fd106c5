(** NIC receive-side scaling.

    The NIC sprays packets across per-core ring buffers by hashing the
    4-tuple through an indirection table — the mechanism Fig. 7 shows
    balancing *packets* perfectly while CPU time stays skewed, which
    motivates scheduling on userspace status instead. *)

type t

val create : queues:int -> t
(** A NIC with [queues] RX queues and an RSS indirection table of 128
    entries initialized round-robin, as real NICs default to. *)

val queue_for : t -> Packet.t -> int
(** RSS decision for one packet (does not record it). *)

val receive : t -> Packet.t -> int
(** Route a packet: returns the queue index and increments that
    queue's packet and byte counters. *)

val packets_per_queue : t -> int array
val bytes_per_queue : t -> int array

val reprogram : t -> (int -> int) -> unit
(** Rewrite the indirection table ([f slot] gives the queue for each of
    the 128 slots) — the knob RSS++-style systems turn.  Provided for
    the Fig. 7 discussion; Hermes itself leaves the table alone.
    @raise Invalid_argument if [f] maps outside [0, queues). *)

val reset_counters : t -> unit
