(** Online invariant monitors for chaos runs.

    A monitor subscribes to the {!Trace} stream of a run (feed every
    record to {!observe}) and checks the paper's safety claims as the
    run unfolds:

    - {b Staleness exclusion}: a worker hit by an
      availability-stopping fault (crash, hang, GC pause, WST write
      stall) receives zero {e program-directed} dispatches once one
      staleness window (plus a small in-flight slack) has elapsed,
      until the fault clears.  Hash-fallback picks are exempt: when
      exclusion would leave fewer than [min_selected] workers, Algo 2
      deliberately trades precision for availability and hashes over
      the whole group.
    - {b Fallback engagement}: while the eBPF program is faulted, the
      reuseport group switches to the rank-select hash fallback within
      a bounded number of selections (with the userspace hook, the
      very first post-fault selection).
    - {b Recovery}: after the program is restored, bitmap ([Prog])
      dispatch resumes.
    - {b No lost connections}: every accepted connection is eventually
      closed, reset, or still owned by a worker at finalization —
      none silently vanish.
    - {b Splice teardown}: once a [Splice_teardown] names a
      connection, no later [Splice_redirect] may name it — a stale
      sockmap entry forwarding bytes to a torn-down connection (or the
      restarted worker behind it) is exactly the misdelivery the
      userspace-directed teardown protocol exists to prevent.

    The monitor only reads trace records plus one final sweep of the
    device's connection tables, so it cannot perturb the run it
    checks. *)

type config = {
  staleness_window : Engine.Sim_time.t;
      (** the Algo 1 time-filter threshold (Hermes
          [avail_threshold]) *)
  selection_slack : Engine.Sim_time.t;
      (** grace after the window for scheduler passes already in
          flight when the deadline passed *)
  fallback_bound : int;
      (** max [Prog] selections tolerated between an [ebpf_fail]
          injection and the first [Hash] fallback pick *)
  expect_exclusion : bool;
      (** enforce the staleness-exclusion invariant — only meaningful
          when a Hermes bitmap actually gates dispatch; plain
          reuseport hashing famously keeps selecting dead workers *)
  expect_fallback : bool;
      (** enforce the fallback-engagement and recovery invariants —
          again Hermes-only: without an attached program there is
          nothing to fall back from or recover to *)
}

val default_config : config
(** 100 ms window (Hermes {!Hermes.Config.default}), 10 ms slack,
    fallback bound 1, exclusion and fallback enforced. *)

type exclusion = {
  fault : Trace.fault;
  worker : int;
  injected_at : Engine.Sim_time.t;
  deadline : Engine.Sim_time.t;  (** injected_at + window + slack *)
  mutable last_before_deadline : Engine.Sim_time.t option;
      (** latest dispatch inside the allowed window — how fast the
          filter converged *)
  mutable late_dispatches : int;
      (** program-directed ([Prog]) selections after the deadline:
          violations *)
  mutable late_hash_fallbacks : int;
      (** [Hash] selections after the deadline — the [min_selected]
          availability floor or a detached program hashing over the
          whole group; permitted by design, reported for visibility *)
  mutable cleared_at : Engine.Sim_time.t option;
}

type fallback = {
  failed_at : Engine.Sim_time.t;
  mutable prog_before_engage : int;
      (** [Prog] selections before the first [Hash] pick *)
  mutable engaged : bool;
  mutable hash_selects : int;
  mutable restored_at : Engine.Sim_time.t option;
  mutable selects_after_restore : int;
  mutable prog_after_restore : int;
}

type t

val create : config -> t

val observe : t -> Trace.record -> unit
(** Feed one trace record, in stream order. *)

type report = {
  accepted : int;
  completed_closes : int;
  lost : int;
  exclusions : exclusion list;  (** injection order *)
  fallbacks : fallback list;  (** injection order *)
  splice_redirects : int;  (** in-kernel redirects observed *)
  stale_splice_redirects : int;
      (** redirects naming an already-torn-down connection — each one
          is a violation *)
  violations : string list;  (** empty iff every invariant held *)
}

val finalize : t -> device:Lb.Device.t -> report
(** End-of-run sweep: resolve still-open connections against the
    workers' tables (anything accepted but neither closed nor owned is
    {e lost}) and assemble the violation list. *)

val pp_report : Format.formatter -> report -> unit
