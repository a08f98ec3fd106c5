(** Per-worker epoll instance.

    Each worker owns one instance.  Two delivery paths exist for
    listening sockets, mirroring the two deployments:

    - {b Shared} sockets (epoll-exclusive modes) are level-triggered:
      readiness is the accept-queue depth, re-checked by scanning every
      shared subscription at each [wait].  This scan is the
      O(#ports) connection-dispatch overhead of §6.2 Case 1.
    - {b Dedicated} sockets (reuseport/Hermes) are push-mode:
      registration installs the socket's readiness hook
      ({!Socket.set_ready}), so each connection {!Socket.push} queues
      readies the instance that watches the socket, in O(1) and with
      no scan.

    Connection fds are push-mode with drain semantics: data arrivals
    accumulate via {!notify_readable}; a [wait] hands the fd over
    with the number of pending request units and the handler drains
    them all — the behaviour that lets a slow drain hang a worker
    (Appendix C, exception case 1).

    Blocking is the {e worker's} concern: [wait] never blocks; when it
    returns no events the worker parks itself and is resumed by a
    wait-queue wakeup (shared socket), a readiness notification, or
    its epoll timeout.

    The per-event path hashes nothing polymorphically and allocates
    nothing: one [Engine.Conn_table] keyed by fd holds each
    subscription together with its pushed, undelivered units, an int
    ring keeps the FIFO order of fds with pushed readiness, and
    {!wait} writes its events into a buffer owned by the instance.
    File descriptors are non-negative ints (0 included). *)

type kind = Accept_ready | Readable

type t

val create : worker_id:int -> t

val set_wakeup : t -> (unit -> unit) -> unit
(** Callback fired on {!notify_readable} and on each connection queued
    on a dedicated listening socket; the worker uses it to leave the
    blocked state. *)

val add_listening : t -> fd:int -> socket:Socket.t -> shared:bool -> unit
(** Register a listening socket (EPOLL_CTL_ADD).  [shared = true]
    subscriptions are found by the level-triggered scan, in
    registration order; a dedicated one ([shared = false]) becomes the
    socket's watcher: its readiness hook pushes one accept readiness
    per queued connection and fires the wakeup callback.  Amortized
    O(1).  @raise Invalid_argument on a duplicate or negative fd. *)

val add_conn : t -> fd:int -> unit
(** Register an accepted connection fd.
    @raise Invalid_argument on a duplicate or negative fd. *)

val remove_conn : t -> fd:int -> unit
(** EPOLL_CTL_DEL + close: discards any pending readiness.  The fd's
    place in the FIFO goes stale: if the fd is registered again and
    becomes ready before the next {!wait} reaches that place, its
    readiness is delivered there. *)

val conn_count : t -> int
[@@test_only]

val listening_count : t -> int
[@@test_only]
(** Registered subscriptions of each kind. *)

val notify_readable : t -> fd:int -> units:int -> unit
(** Data arrived on a registered connection fd; accumulates [units]
    and fires the wakeup callback.  Unknown fds are ignored (data
    racing a close). *)

val wait : t -> max_events:int -> int
(** Non-blocking poll: pushed events in arrival order (FIFO over fds),
    then the shared-listening scan, at most [max_events] in total.
    Returns the number of events [n]; event [i < n] is read with
    {!event_fd}, {!event_kind} and {!event_units} until the next
    [wait]. *)

val event_fd : t -> int -> int

val event_kind : t -> int -> kind

val event_units : t -> int -> int
(** For [Readable], pending request units handed to the handler; for
    [Accept_ready], the number of connections known to be waiting in
    the accept queue (the handler drains up to that many — nginx's
    multi_accept behaviour). *)

val listen_socket : t -> fd:int -> Socket.t
(** The socket behind a listening subscription.
    @raise Not_found if [fd] is not a registered listening fd. *)

val last_scan_cost : t -> int
(** Shared subscriptions examined by the most recent [wait] — the
    worker charges virtual CPU for the scan. *)

val pending_units : t -> int
[@@test_only]
(** Total undelivered pushed units (diagnostics). *)

val rearm : t -> unit
(** Worker restart: drop all pushed readiness, then report each
    dedicated listener's queued connections as one readiness of its
    socket's backlog, as a fresh registration does on Linux.  Without
    that, connections queued while the worker was down would never be
    accepted. *)
