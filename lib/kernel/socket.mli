(** Listening sockets and their accept queues.

    A listening socket holds connections that completed the TCP
    handshake but have not yet been [accept]ed by a userspace worker.
    Shared sockets (one per port, all workers registered on its wait
    queue) model the epoll-exclusive deployment; dedicated sockets (one
    per worker per port, grouped by {!Reuseport}) model the
    reuseport/Hermes deployments.

    Like Linux's [sk_data_ready], a socket wakes whoever watches it:
    {!push} runs the socket's readiness hook once for each connection
    it queues.  A dedicated socket's hook is installed by the one epoll
    instance it is registered on ({!Epoll.add_listening}); a shared
    socket's by whoever owns its wait queue. *)

type pending_conn = {
  seq : int;  (* device-wide connection sequence number *)
  tuple : Netsim.Addr.four_tuple;
  flow_hash : int;  (* the hash the SYN was steered by *)
  tenant_id : int;
}
(** A handshake-complete connection awaiting accept. *)

type t

val create_listen : port:Netsim.Addr.port -> backlog:int -> unit -> t
(** [backlog] bounds the accept queue, like [listen(2)]'s argument;
    overflowing connections are dropped (SYN drop => client timeout).
    The readiness hook starts as a no-op. *)

val id : t -> int
(** Unique socket id (think inode number), from a process-wide
    counter. *)

val port : t -> Netsim.Addr.port

val set_ready : t -> (unit -> unit) -> unit
(** Install the readiness hook, replacing the previous one: a socket
    has one watcher. *)

val set_backlog : t -> int -> unit
(** Change the accept-queue bound in place — the accept-queue-overflow
    fault clamps a victim socket to a tiny backlog so handshakes start
    dropping, then restores the original value on recovery.  Already
    queued connections beyond a smaller bound stay queued (as with
    [listen(2)] re-issued on a live socket); only new pushes see the
    new limit.  @raise Invalid_argument unless positive. *)

val push : t -> pending_conn -> [ `Queued | `Dropped ]
(** Handshake completion: enqueue the connection (kernel side) and run
    the readiness hook, or drop it when the socket is closed or its
    queue is full. *)

val accept : t -> pending_conn option
(** Dequeue the oldest pending connection, [None] if the queue is
    empty (a spurious wakeup). *)

val backlog_len : t -> int

val close : t -> pending_conn list
(** Mark the socket dead and drain the queue; the caller decides what
    to do with the orphaned connections (e.g. count them as reset when
    a worker crashes). *)
