(** A worker process pinned to one CPU core.

    Runs the run-to-completion epoll event loop of Fig. A1, with the
    Hermes instrumentation of Fig. 9 when a runtime is attached:
    [shm_avail_update] at loop entry, [shm_busy_count] around event
    handling, [shm_conn_count] at accept/close, and
    [schedule_and_sync] at the configured point of the loop.

    The worker is a virtual-time state machine: it is {e blocked} in
    [epoll_wait] (waiting for a wait-queue wakeup, a poke, or the 5 ms
    timeout), or {e running} (charging CPU for polling, accepting,
    and request processing), or {e crashed}.  A "hung" worker is not a
    separate state — it is simply a worker charging an enormous request
    cost, exactly as in production (§5.2.1's 440 s read-event stall). *)

type config = {
  max_events : int;
  epoll_timeout : Engine.Sim_time.t;
  conn_capacity : int;
      (** preallocated connection-pool size; accepts beyond it are
          rejected (§5.1.1's capacity-degradation concern) *)
  crash_on : Request.t -> bool;
      (** fault injection: the worker core-dumps when it starts
          processing a matching request — §7's incident, where an
          RFC-unsupported HTTP/2-to-WebSocket upgrade crashed the
          worker carrying 70% of the device's connections *)
}

val default_config : config

type callbacks = {
  on_established : Conn.t -> unit;
  on_request_done : Conn.t -> Request.t -> unit;
  on_conn_closed : Conn.t -> unit;  (** graceful close *)
  on_conn_reset : Conn.t -> unit;  (** RST: crash, pool reject, shed *)
}

type t

val create :
  sim:Engine.Sim.t ->
  id:int ->
  config:config ->
  alloc_fd:(unit -> int) ->
  callbacks:callbacks ->
  ?hermes:Hermes.Runtime.t ->
  unit ->
  t

val id : t -> int

val listen_shared : t -> socket:Kernel.Socket.t -> unit
(** Register a shared listening socket on a fresh fd: the worker's
    polls scan it. *)

val listen_dedicated : t -> socket:Kernel.Socket.t -> unit
(** Register a dedicated listening socket on a fresh fd: the worker
    becomes its watcher, so each connection pushed on it readies the
    worker's epoll and wakes a blocked worker. *)

val start : t -> unit
(** Enter the event loop (schedules the first iteration at the current
    virtual time).  Idempotent once running. *)

val try_wake : t -> bool
(** Wait-queue callback: wakes the worker iff it is blocked in
    [epoll_wait].  Returns whether it was woken. *)

val is_crashed : t -> bool

val adopt_conn : t -> tenant_id:int -> Conn.t
(** Create an established connection owned by this worker directly,
    bypassing dispatch — used by tests and fault injection (e.g. to
    hand a worker the oversized request that hangs it).
    @raise Invalid_argument if the worker is crashed. *)

val deliver : t -> Conn.t -> Request.t -> bool
(** Data arrival on an owned connection: append to its inbox and
    notify epoll.  False if the connection is no longer open. *)

val crash : t -> unit
(** Stop the loop; owned connections stall (events pile up, nothing is
    processed) until [restart]. *)

val restart : t -> unit
(** Respawn after a crash: every owned connection is reset (clients
    see RST), counters and the WST column are repaired, and the loop
    re-enters.  No-op unless crashed. *)

val reset_connection : t -> Conn.t -> unit
(** Proactively RST one owned connection (degradation shedding). *)

val inject_stall : t -> req_id:int -> cost:Engine.Sim_time.t -> bool
(** Fault injection: charge [cost] of synthetic work through the
    worker's normal event loop, so the loop stops rotating (and the
    WST availability timestamp stops advancing) for the duration —
    the mechanism behind the hang, GC-pause, and slow-down fault
    classes.  The work rides a lazily created fault connection with
    [tenant_id = -1] that bypasses the accept path and accept stats.
    Returns false (and injects nothing) if the worker is crashed. *)

val conns : t -> Conn.t list
(** Connections held for clients, in fd order: the {!inject_stall}
    carrier is not one. *)

val conn_count : t -> int
(** Connections held for clients: the {!inject_stall} carrier is not
    one. *)

val cpu_busy : t -> Engine.Sim_time.t
(** Cumulative CPU time consumed by this worker's core up to now;
    a charge in progress counts only its elapsed part. *)

type stats = {
  events_per_wait : Stats.Histogram.t;
      (** #events returned by each epoll_wait (Fig. 4) *)
  batch_processing : Stats.Histogram.t;
      (** ns spent handling each non-empty batch (Fig. 5a) *)
  blocking : Stats.Histogram.t;  (** ns blocked per epoll_wait (Fig. 5b) *)
  mutable loop_entries : int;
  mutable accepted : int;
  mutable completed : int;
  mutable closed : int;
  mutable resets : int;
  mutable pool_rejects : int;
  mutable spurious_wakeups : int;  (** woke with nothing to accept *)
  mutable spliced_redirects : int;
      (** chunks of this worker's connections the kernel splice path
          forwarded without waking it (splice mode) *)
}

val stats : t -> stats

val note_spliced_redirect : t -> unit
(** Count one in-kernel redirect of this worker's traffic (called by
    the device's splice path; the worker itself never sees the
    chunk). *)
