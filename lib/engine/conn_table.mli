(** Struct-of-arrays int-keyed table for per-connection state.

    It lives in the engine so every layer can use it: [Lb.Device] keys
    connection callbacks by connection id, [Lb.Worker] its connections
    by fd, and [Kernel.Epoll] its subscriptions and pending readiness
    by fd.

    At multi-million-connection scale the per-connection [Hashtbl]s
    that used to back [Device] and [Worker] dominate the heap: every
    entry costs a bucket cons, a boxed key and (for the device) a
    two-field record, and churning a million connections per second
    feeds the minor GC a steady stream of garbage.  This table keeps
    all fixed-width per-connection state in [Bigarray] int arrays —
    off the OCaml heap, invisible to the GC — and the one necessarily
    boxed payload per entry in a flat ['a array] slot store with a
    free list, so the open/close hot path allocates {e zero} minor
    words once the table has reached its working size
    (see [bench/conn_bench.ml], gated by the [conn] rows of
    [bench/baseline.json]).

    Layout: an open-addressing index (linear probing, power-of-two
    capacity, backward-shift deletion) maps a positive int key to a
    {e slot} — an index into parallel arrays holding the key, one
    spare int field ([aux], the device stores SYN timestamps there)
    and the boxed payload.  Slots are recycled LIFO through a free
    list threaded through a fourth int array; freeing a slot
    overwrites its payload with the [dummy] supplied at creation so
    the table never retains closures or buffers for dead connections.

    Keys must be [> 0] (0 is the empty-bucket sentinel; connection
    ids, fds and socket ids in this codebase all start at 1). *)

type 'a t

val create : dummy:'a -> ?capacity:int -> unit -> 'a t
(** [capacity] (default 1024) is a hint for the initial number of
    entries; the table grows by doubling when about 3/4 full. *)

val length : 'a t -> int
(** Live entries. *)

val capacity : 'a t -> int
(** Current index capacity (entries before the next doubling exceed
    3/4 of this). *)

val add : 'a t -> key:int -> aux:int -> 'a -> unit
(** Insert or overwrite the entry for [key].  Replacing an existing
    key updates its slot in place.  @raise Invalid_argument on
    [key <= 0]. *)

val find_slot : 'a t -> int -> int
(** The slot bound to a key, or [-1] when absent — no option
    allocation on the lookup path. *)

val mem : 'a t -> int -> bool

val payload : 'a t -> int -> 'a
(** Read a slot returned by {!find_slot} / {!iter}.  Slots are stable
    until the entry is removed. *)

val set_payload : 'a t -> int -> 'a -> unit
val aux : 'a t -> int -> int
val set_aux : 'a t -> int -> int -> unit

val key_of_slot : 'a t -> int -> int

val remove : 'a t -> int -> bool
(** Delete a key; the freed slot's payload is reset to [dummy].
    Returns whether the key was present. *)

val iter : 'a t -> (key:int -> slot:int -> unit) -> unit
(** Visit every live entry, in index (hash) order — deterministic for
    a given insert/remove history, but not insertion order.  The
    callback must not add or remove entries. *)

val fold : 'a t -> init:'b -> f:('b -> key:int -> slot:int -> 'b) -> 'b

val keys_sorted : 'a t -> int list
(** Live keys in increasing order — for iteration sites whose visit
    order is observable (trace emission, restart sweeps).  Allocates;
    control-plane use only. *)

val clear : 'a t -> unit
(** Drop all entries (payloads reset to [dummy]); capacity is kept. *)

(** {1 Reference implementation}

    A [Hashtbl]-backed table with the identical signature, kept for
    the qcheck differential in [test/test_conn_table.ml]: random
    operation programs must leave both implementations with the same
    observable contents. *)

module Ref : sig
  type 'a t

  val create : dummy:'a -> ?capacity:int -> unit -> 'a t
  val length : 'a t -> int
  val add : 'a t -> key:int -> aux:int -> 'a -> unit
  val find_slot : 'a t -> int -> int
  val mem : 'a t -> int -> bool
  val payload : 'a t -> int -> 'a
  val set_payload : 'a t -> int -> 'a -> unit
  val aux : 'a t -> int -> int
  val set_aux : 'a t -> int -> int -> unit
  val key_of_slot : 'a t -> int -> int
  val remove : 'a t -> int -> bool
  val keys_sorted : 'a t -> int list
  val clear : 'a t -> unit
end

(** {1 Dense int-keyed side table}

    For keys allocated densely from 1 (simulated socket ids), a plain
    pair of int arrays beats any hash table: {!Dense} maps such a key
    to two ints ([a], [b] — the device stores (worker, fd) ownership
    there), with [-1] marking absence.  O(1), zero allocation after
    growth. *)

module Dense : sig
  type t

  val create : ?capacity:int -> unit -> t
  val set : t -> key:int -> a:int -> b:int -> unit
  val mem : t -> int -> bool
  val get_a : t -> int -> int
  (** [-1] when unset. *)

  val get_b : t -> int -> int
  val remove : t -> int -> unit
  val length : t -> int

  val iter : t -> (key:int -> a:int -> b:int -> unit) -> unit
  (** Visit every set key in increasing key order.  The callback must
      not add entries (removal of already-visited keys is fine). *)
end
