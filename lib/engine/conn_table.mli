(** Struct-of-arrays int-keyed table for per-connection state.

    It lives in the engine so every layer can use it, and it is the
    one int-keyed table they use: [Lb.Device] keys connection
    callbacks by connection id and tenants by tenant id, [Lb.Splice]
    its sockmap attachments by connection id, [Lb.Worker] its
    connections by fd, and [Kernel.Epoll] its subscriptions by fd.

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
    [bench/baseline.json], which time it against the test suite's
    [Hashtbl]-backed oracle).

    Layout: an open-addressing index (linear probing, power-of-two
    capacity, backward-shift deletion) maps a positive int key to a
    {e slot} — an index into parallel arrays holding the key, one
    spare int field ([aux]) and the boxed payload.  Each user keeps
    one fixed-width fact in [aux]: the device a connection's SYN
    timestamp and a tenant's index, the splice plane an attachment's
    sockmap key, epoll a subscription's pushed, undelivered units.  Slots are recycled LIFO through a free
    list threaded through a fourth int array; freeing a slot
    overwrites its payload with the [dummy] supplied at creation so
    the table never retains closures or buffers for dead connections.

    Keys must be [> 0] (0 is the empty-bucket sentinel): connection
    ids and a device's fds start at 1; epoll (whose fds may be 0) and
    the tenant index key by the id plus one. *)

type 'a t

val create : dummy:'a -> ?capacity:int -> unit -> 'a t
(** [capacity] (default 1024) is a hint for the initial number of
    entries; the table grows by doubling when about 3/4 full. *)

val length : 'a t -> int
(** Live entries. *)

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

val aux : 'a t -> int -> int
val set_aux : 'a t -> int -> int -> unit

val remove : 'a t -> int -> bool
(** Delete a key; the freed slot's payload is reset to [dummy].
    Returns whether the key was present. *)

val iter : 'a t -> (key:int -> slot:int -> unit) -> unit
(** Visit every live entry, in index (hash) order — deterministic for
    a given insert/remove history, but not insertion order.  The
    callback must not add or remove entries. *)

val fold : 'a t -> init:'b -> f:('b -> key:int -> slot:int -> 'b) -> 'b
