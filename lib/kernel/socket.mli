(** Listening sockets and their accept queues.

    A listening socket holds connections that completed the TCP
    handshake but have not yet been [accept]ed by a userspace worker.
    Shared sockets (one per port, all workers registered on its wait
    queue) model the epoll-exclusive deployment; dedicated sockets (one
    per worker per port, grouped by {!Reuseport}) model the
    reuseport/Hermes deployments. *)

type pending_conn = {
  seq : int;  (* device-wide connection sequence number *)
  tuple : Netsim.Addr.four_tuple;
  flow_hash : int;
  tenant_id : int;
  syn_time : Engine.Sim_time.t;
}
(** A handshake-complete connection awaiting accept. *)

type t

val create_listen : ?id:int -> port:Netsim.Addr.port -> backlog:int -> unit -> t
(** [backlog] bounds the accept queue, like [listen(2)]'s argument;
    overflowing connections are dropped (SYN drop => client timeout).
    [id] names the socket explicitly; without it a process-wide atomic
    counter allocates one.  Devices pass their own per-instance ids so
    socket numbering is a function of one device's creation order
    alone — independent of how the devices of a cluster interleave. *)

val id : t -> int
(** Unique socket id (think inode number); lets callers key tables by
    socket.  Unique process-wide when self-allocated, per-namespace
    when the creator passed [?id]. *)

val port : t -> Netsim.Addr.port

val set_backlog : t -> int -> unit
(** Change the accept-queue bound in place — the accept-queue-overflow
    fault clamps a victim socket to a tiny backlog so handshakes start
    dropping, then restores the original value on recovery.  Already
    queued connections beyond a smaller bound stay queued (as with
    [listen(2)] re-issued on a live socket); only new pushes see the
    new limit.  @raise Invalid_argument unless positive. *)

val push : t -> pending_conn -> [ `Queued | `Dropped ]
(** Handshake completion: enqueue the connection (kernel side).  The
    caller is responsible for then waking the socket's waiters. *)

val accept : t -> pending_conn option
(** Dequeue the oldest pending connection, [None] if the queue is
    empty (a spurious wakeup). *)

val backlog_len : t -> int
val total_dropped : t -> int
val total_accepted : t -> int

val close : t -> pending_conn list
(** Mark the socket dead and drain the queue; the caller decides what
    to do with the orphaned connections (e.g. count them as reset when
    a worker crashes). *)

val is_closed : t -> bool
