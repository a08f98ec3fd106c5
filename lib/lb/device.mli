(** One L7 LB device: a VM with [workers] cores, one worker per core.

    Assembles the whole dispatch pipeline for a chosen I/O event
    notification mode:

    - {b Exclusive / Epoll_rr / Wake_all}: one shared listening socket
      per tenant port; every worker registers on its wait queue, which
      applies the corresponding wakeup policy.
    - {b Reuseport}: one dedicated socket per (port, worker); the
      kernel hashes SYNs across the group.
    - {b Hermes}: reuseport sockets plus the Hermes runtime — WST,
      per-worker schedulers, and the Algo 2 eBPF program attached to
      every port's group.
    - {b Splice}: reuseport accepts, then an in-kernel sockmap fast
      path for established-connection payload ({!Splice}) — workers
      only see session events, the kernel forwards the bytes.

    Clients drive it with [connect] / [send] / [close_conn]; workload
    generators live in the [workload] library. *)

type mode =
  | Exclusive
  | Epoll_rr
  | Wake_all
  | Io_uring_fifo
      (** io_uring's default interrupt-mode wakeup: a shared completion
          source with FIFO waiter order (§8) — concentration like
          exclusive, on the oldest waiter instead of the newest *)
  | Reuseport
  | Hermes of Hermes.Config.t
  | Splice
      (** kernel-side L7 splicing: established connections are handed
          off to a verified sockmap-redirect program; forwarding ops
          bypass the worker entirely, session ops and closes still go
          through it *)

val mode_name : mode -> string

val of_mode : ?hermes:Hermes.Config.t -> Hermes.Config.Mode.t -> mode
(** Map the config-level mode name ({!Hermes.Config.Mode}) to a device
    mode; [hermes] (default {!Hermes.Config.default}) supplies the
    runtime configuration when the mode is [Hermes]. *)

type conn_events = {
  established : Conn.t -> unit;
  request_done : Conn.t -> Request.t -> unit;
  closed : Conn.t -> unit;
  reset : Conn.t -> unit;
  dispatch_failed : unit -> unit;  (** SYN dropped before reaching a worker *)
}

val null_conn_events : conn_events

type t

val create :
  sim:Engine.Sim.t ->
  rng:Engine.Rng.t ->
  mode:mode ->
  workers:int ->
  tenants:Netsim.Tenant.t array ->
  ?worker_config:Worker.config ->
  ?backlog:int ->
  ?hermes_group_size:int ->
  ?hermes_select_mode:Hermes.Groups.select_mode ->
  ?stagger_registration:bool ->
  ?splice_slots:int ->
  ?splice_copy:int ->
  unit ->
  t
(** [stagger_registration] rotates the wait-queue registration order
    per port in the shared modes — the failed mitigation §7 discusses
    (different "last added" worker per port).  [splice_slots] (default
    4096) and [splice_copy] (default 0) configure the sockmap size and
    selective-copy budget in [Splice] mode (see {!Splice.create}).
    Tenant ids must be non-negative: negative ids mark synthetic
    fault-injection carriers.
    @raise Invalid_argument on a negative tenant id. *)

val start : t -> unit
val sim : t -> Engine.Sim.t
val device_mode : t -> mode
val worker_count : t -> int
val worker : t -> int -> Worker.t
val workers : t -> Worker.t array
val tenants : t -> Netsim.Tenant.t array
val hermes_runtime : t -> Hermes.Runtime.t option
val fresh_id : t -> int
(** Allocator for request ids. *)

(** {1 Client-side operations} *)

val connect : t -> tenant:int -> events:conn_events -> unit
(** Open a connection to the given tenant (index into [tenants]): the
    SYN is dispatched through the mode's kernel path now; [established]
    fires when a worker accepts. *)

val send : t -> Conn.t -> Request.t -> bool
(** Deliver a request on an established connection. *)

val close_conn : t -> Conn.t -> unit
(** Graceful close: enqueues a close marker processed in order. *)

val probe_once :
  t -> tenant:int -> timeout:Engine.Sim_time.t ->
  on_result:(Engine.Sim_time.t option -> unit) -> unit
(** Health probe: connect, send one trivial request, report the
    SYN-to-completion delay, or [None] on timeout/reset/drop. *)

(** {1 Failure injection and recovery} *)

val crash_worker : t -> int -> unit
(** The worker process dies: its loop stops, owned connections stall.
    Dedicated sockets keep receiving SYNs (the reuseport blind spot)
    until [isolate_worker]. *)

val isolate_worker : t -> int -> unit
(** Detection acted: unbind the worker's dedicated sockets (draining
    queued connections as resets), and force its Hermes availability
    stale.  No-op in shared modes (a dead worker is simply never
    woken). *)

val recover_worker : t -> int -> unit
(** Restart the worker and re-bind fresh dedicated sockets if it was
    isolated. *)

val inject_hang : t -> worker:int -> duration:Engine.Sim_time.t -> unit
(** Hand the worker one request costing [duration] — the stuck-drain
    hang of Appendix C. *)

val set_probe_loss : t -> bool -> unit
(** While set, [probe_once] drops the probe SYN on the wire: the
    timeout path is the only outcome.  Models a probe-loss burst
    (monitoring network brown-out) without touching tenant traffic. *)

val fail_ebpf_prog : t -> unit
(** Make every port group's attached dispatch program fault at run
    time ({!Kernel.Reuseport.set_prog_fault}): selection degrades to
    the rank-select hash fallback until [restore_ebpf_prog].  No-op in
    shared modes (nothing is attached). *)

val restore_ebpf_prog : t -> unit

val set_map_sync_delay : t -> Engine.Sim_time.t option -> unit
(** Defer every scheduler bitmap push by the given delay (via
    {!Hermes.Runtime.set_sync_defer} on this device's simulator); the
    kernel dispatches on the stale bitmap in the interim.  [None]
    restores synchronous pushes.  No-op in non-Hermes modes. *)

val splice : t -> Splice.t option
(** The splice control plane ([Splice] mode only). *)

val set_splice_desync : t -> worker:int -> bool -> unit
(** Inject the [splice_desync] fault: while set, sockmap deletes
    targeting the worker are lost ({!Splice.set_desynced}).  No-op in
    non-splice modes. *)

val set_splice_strict : t -> bool -> unit
(** Toggle the splice plane's userspace-directed verification
    ({!Splice.set_strict}).  No-op in non-splice modes. *)

val splice_kernel_cycles : t -> int
(** Cumulative in-kernel splice cycles — redirect-program runs plus
    forwarding/selective-copy work (0 outside [Splice] mode). *)

val overflow_accept_queue : t -> worker:int -> unit
(** Clamp the victim's listening-socket backlogs to one pending
    connection, so handshakes overflow and drop.  Dedicated modes
    clamp worker's socket per port; shared modes clamp the port
    sockets themselves (there is no per-worker socket). *)

val restore_accept_queue : t -> worker:int -> unit
(** Undo [overflow_accept_queue], restoring the device's configured
    backlog. *)

val enable_degradation :
  t -> policy:Hermes.Degrade.policy -> check_every:Engine.Sim_time.t -> unit
(** Periodically measure per-worker utilization and RST connections on
    overloaded workers per the policy. *)

(** {1 Measurements} *)

val latency_hist : t -> Stats.Histogram.t
(** End-to-end request latency in ns (completion - arrival +
    client RTT), work requests only. *)

val establishment_hist : t -> Stats.Histogram.t
(** SYN-to-accept latency in ns — where accept-queue backlogs (worker
    outages, overload) show up. *)

val completed : t -> int
val dropped : t -> int
val conns_reset : t -> int

val accepted_per_worker : t -> int array
val conns_per_worker : t -> int array
val cpu_busy_per_worker : t -> Engine.Sim_time.t array

val utilization_since : t -> Engine.Sim_time.t array -> window:Engine.Sim_time.t -> float array
(** [utilization_since t prev ~window] given a previous
    [cpu_busy_per_worker] snapshot. *)

type sample = {
  at : Engine.Sim_time.t;
  util : float array;
  conns : int array;
}

val enable_sampling : t -> ?retain:int -> every:Engine.Sim_time.t -> unit -> unit
(** Record per-worker utilization and connection counts periodically
    (the sampling behind Fig. 13).  Sampling runs until the simulation
    stops being driven.  At most [retain] (default 4096) raw samples
    are kept — a bounded ring of the most recent ones, so week-long
    soaks don't grow a per-tick list without bound; every sample is
    additionally folded into the streaming histograms below, which
    cover the whole run. *)

val samples : t -> sample list
(** The retained (most recent) samples, oldest first. *)

val samples_dropped : t -> int
(** Raw samples evicted from the ring because [retain] was exceeded.
    Their contribution survives in the histograms. *)

val sample_util_hist : t -> Stats.Histogram.t
(** Per-worker utilization from every sampling tick of the run,
    recorded in basis points (utilization × 10{^4}: 10000 = fully
    busy). *)

val sample_conn_hist : t -> Stats.Histogram.t
(** Per-worker connection counts from every sampling tick. *)

val reset_measurements : t -> unit
(** Clear the latency histogram and device-level counters (warm-up
    exclusion); per-worker cumulative stats are left intact. *)

val kernel_dispatch_cycles : t -> int
(** Cumulative eBPF dispatcher cycles over all port groups (Hermes
    mode; 0 otherwise). *)

(** {1 Per-tenant attribution and sandboxing (Appendix C, case 2)} *)

type tenant_stats = {
  tenant : int;  (** index into [tenants] *)
  new_conns : int;  (** connections established since the last reset *)
  cpu_consumed : Engine.Sim_time.t;  (** request CPU attributed *)
}

val tenant_report : t -> tenant_stats array
(** Per-tenant accounting window — the input to overload attribution. *)

val reset_tenant_report : t -> unit
(** Start a fresh attribution window. *)

val quarantine_tenant : t -> tenant:int -> unit
(** Migrate a tenant to an isolation sandbox: its established
    connections are reset, SYNs queued on its port are dropped, and
    all future connects fail at dispatch — freeing the workers it was
    exhausting.  Irreversible on this device (the sandbox serves the
    tenant from here on). *)

val is_quarantined : t -> tenant:int -> bool
