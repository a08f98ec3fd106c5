(** Socket wait queues with the wakeup policies the paper contrasts.

    A wait queue holds one entry per worker registered on a shared
    listening socket via [epoll_ctl].  As in the kernel (Fig. A2's
    [__wake_up_common]), waking walks the list from the head and asks
    each waiter's callback whether it accepted the event; policies
    differ in when the walk stops and whether the woken entry moves:

    - {b Lifo_exclusive}: entries are inserted at the head and the walk
      stops at the first waiter that accepts — Linux's
      [EPOLLEXCLUSIVE].  Because insertion is at the head, the most
      recently registered idle worker always wins, producing the
      LIFO-concentration pathology of §2.2.
    - {b Roundrobin_exclusive}: like exclusive, but the woken entry is
      moved to the tail — the unmerged "epoll rr" patch.
    - {b Wake_all}: every waiter is woken — pre-4.5 epoll, exhibiting
      the thundering herd.
    - {b Fifo_exclusive}: the walk starts from the {e oldest}
      registration — io_uring's default interrupt-mode wakeup order
      (§8: "similar to epoll, but in FIFO order").  Still a fixed
      order, so load still concentrates, just on the other end of the
      queue.

    Waiters live on an intrusive doubly-linked ring, so [register],
    [unregister] and the round-robin rotate-to-tail are all O(1).

    {b Snapshot semantics.}  A [wake] traversal visits exactly the
    waiters registered when it started.  Callbacks may mutate the
    queue mid-walk: a waiter registered from inside a callback is not
    visited until the next [wake], and one unregistered mid-walk is
    skipped if the walk has not reached it yet (and, for round-robin,
    is not re-queued even if it accepted the wake).  Physical unlinks
    are deferred until the traversal ends so the walk cursor stays
    valid. *)

type mode = Lifo_exclusive | Roundrobin_exclusive | Wake_all | Fifo_exclusive

type t

val create : mode -> t

val register : t -> id:int -> try_wake:(unit -> bool) -> unit
(** [register t ~id ~try_wake] inserts at the {e head}, mirroring
    epoll_ctl's [__add_wait_queue].  [try_wake ()] must return [true]
    iff the worker was blocked and has now been woken.
    @raise Invalid_argument if [id] is already registered. *)

val unregister : t -> id:int -> unit
(** Remove a worker (crash or EPOLL_CTL_DEL) in O(1).  Unknown ids are
    ignored.  Safe to call from inside a [wake] callback: the waiter
    is skipped for the rest of the traversal. *)

val wake : t -> int
(** Run one wakeup traversal; returns the number of workers woken
    (0 if all were busy — the event then waits in the accept queue
    until some worker polls).  Visits only the waiters registered
    before the call (see snapshot semantics above). *)
