(** Backend server group behind the LB.

    Reproduces the two deployment lessons of §7 "Experiences":

    - {b Synchronized round-robin restarts}: when the controller pushes
      an updated server list, every worker restarts its round-robin
      cursor at the head of the (identically ordered) list, so the
      first servers soak up disproportionate traffic.  The fix
      randomizes each worker's starting offset.
    - {b Connection reuse}: spreading requests over all workers (as
      Hermes does) fragments per-worker backend connection pools,
      inflating handshake counts; a pool shared across workers restores
      reuse. *)

type pool_mode = Per_worker | Shared

type t

val create :
  servers:int -> workers:int -> mode:pool_mode -> ?idle_per_server:int ->
  unit -> t
(** [idle_per_server] bounds idle kept-alive connections per server per
    pool (default 2). *)

val forward_and_release : t -> worker:int -> int
(** Route one request — round-robin server choice for this worker,
    then reuse an idle backend connection or open a new one (counted
    as a handshake) — and immediately return the connection to the
    pool, kept if there is idle capacity; returns the server index. *)

val update_server_list :
  t -> ?servers:int -> randomize:Engine.Rng.t option -> unit -> unit
(** Controller push: optionally resize the server set, drop all pooled
    connections, and restart every worker's cursor — at offset 0 when
    [randomize] is [None] (the buggy behaviour), at a random offset
    otherwise (the fix). *)

val requests_per_server : t -> int array
val handshakes : t -> int

val reset_counters : t -> unit
