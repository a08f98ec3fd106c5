(** Hermes runtime: one instance per LB device.

    Owns the grouped WSTs, the selection map, and per-worker metric
    hooks; builds the dispatch program for each listening port; and
    runs the worker-triggered distributed scheduler
    ([schedule_and_sync], Fig. 9 line 20).  It also keeps the
    component-level accounting (counter / scheduler / syscall cycles,
    scheduler call counts, coarse-filter pass ratios) that Table 5 and
    Fig. 14 report. *)

type t

val create :
  ?group_size:int ->
  ?select_mode:Groups.select_mode ->
  config:Config.t ->
  workers:int ->
  unit ->
  t
(** Defaults: [group_size = 64] (single group for ≤64 workers),
    flow-hash level-1 selection. *)

val config : t -> Config.t
val groups : t -> Groups.t

val hooks : t -> int -> Metrics.t
(** The Fig. 9 instrumentation hooks for a global worker id. *)

val make_prog :
  t -> m_socket:Kernel.Ebpf_maps.Sockarray.t -> Kernel.Ebpf.prog
(** Dispatch program for one port; [m_socket] indexed by global worker
    id. *)

val schedule_and_sync : t -> worker:int -> now:Engine.Sim_time.t -> int
(** Run Algo 1 over the calling worker's group and push the bitmap to
    the kernel through a counted map-update syscall; returns the pass's
    estimated cycle cost (the syscall is {!syscall_cost_cycles} more).
    The pass runs on the runtime's reusable {!Scheduler.scratch} and
    the bitmap reaches the map's unboxed cell, so with tracing disabled
    and no {!set_sync_defer} hook the call allocates nothing. *)

val mark_dead : t -> worker:int -> unit
(** Force a worker's availability timestamp far into the past so
    FilterTime excludes it immediately (used when a crash is
    detected). *)

val set_sync_defer : t -> ((unit -> unit) -> unit) option -> unit
(** Fault hook for the map-sync path.  With [Some defer] installed,
    every bitmap push of [schedule_and_sync] is routed through
    [defer] instead of landing immediately — the chaos harness passes
    a simulator [schedule_after] so the kernel keeps dispatching on
    the previous bitmap for the injected delay, the benign staleness
    window §5.4 argues the design tolerates.  [None] (the default)
    restores the synchronous push.  The syscall is counted when the
    store lands, not when it is issued. *)

type accounting = {
  counter_cycles : int;  (** Table 5 "Counter" *)
  scheduler_cycles : int;  (** Table 5 "Scheduler" *)
  syscall_cycles : int;  (** Table 5 "System call" *)
  scheduler_calls : int;  (** Fig. 14 call frequency numerator *)
  sync_calls : int;
  pass_sum : int;  (** sum of coarse-filter survivors over calls *)
  considered_sum : int;  (** sum of workers considered over calls *)
}

val accounting : t -> accounting

val pass_ratio : t -> float
(** Average fraction of workers passing the coarse filter (Fig. 14). *)

val reset_accounting : t -> unit

val syscall_cost_cycles : int
(** Modelled cost of one bpf() map-update syscall. *)
