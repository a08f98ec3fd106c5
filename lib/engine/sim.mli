(** Discrete-event simulation driver.

    All subsystems (the TCP model, epoll, workers, workload generators,
    probers) run as callbacks scheduled on one of these simulators.
    Events at equal timestamps fire in scheduling order (a monotone
    sequence number breaks ties), which makes every run deterministic.

    The queue behind this interface is the hierarchical timing wheel
    of {!Wheel}: amortised O(1) schedule and extraction, O(1) {!cancel}
    that frees the event's storage and drops its action closure
    immediately, and O(1) {!pending_count}.  Past the wheel's
    high-water mark, scheduling, firing and cancelling allocate
    nothing beyond the caller's closure.  The retired binary-heap
    engine survives as {!Ref_heap} for differential tests and the
    scheduler benchmarks. *)

type t

type handle
(** Names a scheduled event so it can be cancelled (e.g. an epoll_wait
    timeout that is preempted by an I/O event).  An immediate integer —
    the wheel's storage index plus that index's generation — so holding
    one allocates nothing.  Storage indices are recycled, but a handle
    whose event fired or was cancelled is stale for good: [cancel] and
    [is_pending] on it never touch the event that now occupies the
    index. *)

val null_handle : handle
(** A handle that names no event: never pending; cancelling it is a
    no-op.  A placeholder for mutable fields. *)

val create : unit -> t

val now : t -> Sim_time.t
(** Current virtual time. *)

val shard_id : t -> int
(** Logical-shard tag of this simulator: [0] for a standalone
    simulator (the default), the owning {!Shard}'s id when the
    simulator is one logical process of a sharded cluster run.  Purely
    a label — it feeds the deterministic [(time, shard, seq)] merge
    order of per-shard traces. *)

val set_shard : t -> int -> unit

val schedule : t -> at:Sim_time.t -> (unit -> unit) -> handle
(** [schedule t ~at f] runs [f] when virtual time reaches [at].
    @raise Invalid_argument if [at] is in the past. *)

val schedule_after : t -> delay:Sim_time.t -> (unit -> unit) -> handle
(** [schedule_after t ~delay f] is [schedule t ~at:(now t + delay) f].
    @raise Invalid_argument if [delay] is negative. *)

val cancel : t -> handle -> unit
(** Cancel a pending event in O(1), freeing its storage and releasing
    its action closure immediately — nothing is left behind to sweep.
    Cancelling an already-fired or already-cancelled event is a
    no-op. *)

val is_pending : t -> handle -> bool

val pending_count : t -> int
(** Number of live (not cancelled, not fired) events — O(1).  The
    wheel's storage is bounded by the high-water mark of this count. *)

val step : t -> bool
(** Fire the earliest pending event.  Returns [false] when the queue is
    empty. *)

val run : t -> unit
(** Run until no events remain. *)

val run_until : t -> limit:Sim_time.t -> unit
(** Run events with timestamp [<= limit], then advance the clock to
    [limit].  Events scheduled beyond [limit] stay pending.  When a
    {!stop} cuts the run short while events [<= limit] remain, the
    clock stays at the last fired event, so it never passes a pending
    event. *)

val stop : t -> unit
(** Request that [run] / [run_until] return after the current event. *)

val events_fired : t -> int
(** Total events executed so far (a cheap progress metric for tests). *)
