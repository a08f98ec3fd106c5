(** Typed fault plans.

    A plan is a schedule of injections against one device: each entry
    names a virtual instant and a fault action.  Plans are plain data —
    parsed from a small line-oriented text format, linted against the
    device shape, and replayed deterministically by {!Inject} — so a
    chaos run is fully described by [(plan, seed)] and nothing else.

    The text format is one entry per line:

    {v
    # comments and blank lines are ignored
    at 500ms  hang         worker=2 duration=400ms
    at 1s     ebpf_fail    duration=300ms
    at 2s     crash        worker=5
    at 2600ms recover      worker=5
    v}

    Times are integers with a unit suffix ([ns], [us], [ms], [s]); a
    bare integer means nanoseconds.  [to_string]/[parse] round-trip. *)

type action =
  | Crash of { worker : int }
      (** The worker process dies ({!Lb.Device.crash_worker}); its
          dedicated sockets keep attracting SYNs until isolation. *)
  | Isolate of { worker : int }
      (** Detection acted: unbind the worker's dedicated sockets and
          force its availability stale ({!Lb.Device.isolate_worker}). *)
  | Recover of { worker : int }
      (** Restart a crashed worker ({!Lb.Device.recover_worker}). *)
  | Hang of { worker : int; duration : Engine.Sim_time.t }
      (** One oversized request charged through the event loop — the
          §5.2.1 stuck-drain stall. *)
  | Gc_pause of { worker : int; duration : Engine.Sim_time.t }
      (** Same loop-stopping mechanism as [Hang], but named separately
          so traces and reports distinguish runtime pauses from stuck
          requests.  The WST availability timestamp freezes either
          way. *)
  | Slowdown of { worker : int; factor : int; duration : Engine.Sim_time.t }
      (** Duty-cycle slowdown: for [duration], the worker burns
          [(factor-1)/factor] of every 5 ms period on synthetic work,
          so it runs at [1/factor] speed without ever fully stalling —
          its timestamp keeps advancing, only slower. *)
  | Wst_stall of { worker : int; duration : Engine.Sim_time.t }
      (** The worker's WST availability writes stop landing
          ({!Hermes.Wst.set_stall}) while the process stays healthy:
          the scheduler must exclude it on staleness alone. *)
  | Map_sync_delay of { delay : Engine.Sim_time.t; duration : Engine.Sim_time.t }
      (** Every scheduler bitmap push is deferred by [delay]; the
          kernel dispatches on stale bitmaps in the interim. *)
  | Ebpf_fail of { duration : Engine.Sim_time.t }
      (** Every port group's dispatch program faults at run time;
          selection must degrade to the rank-select hash fallback and
          re-engage the program after clearing. *)
  | Probe_loss of { duration : Engine.Sim_time.t }
      (** Health probes are lost on the wire (timeout-only outcomes);
          tenant traffic is untouched. *)
  | Accept_overflow of { worker : int; duration : Engine.Sim_time.t }
      (** The worker's listening backlogs clamp to one pending
          connection, so handshake bursts overflow and drop. *)
  | Splice_desync of { worker : int; duration : Engine.Sim_time.t }
      (** Sockmap deletes targeting the worker are silently lost
          ({!Lb.Device.set_splice_desync}): teardowns leave stale
          kernel entries behind.  The splice plane's strict conn-id
          verification must keep any stale entry from redirecting
          bytes; disabling it lets the monitors demonstrate the
          misdelivery.  No-op outside splice mode. *)

type entry = { at : Engine.Sim_time.t; action : action }
type t = entry list

val kind : action -> Trace.fault
(** The action's fault class, as {!Trace.Fault_inject} records carry
    it; {!Trace.fault_name} is its plan-file name. *)

val worker_of : action -> int option
(** The targeted worker; [None] for device-wide faults. *)

val duration_of : action -> Engine.Sim_time.t option

val stops_availability : Trace.fault -> bool
(** Whether the fault class freezes the victim's WST availability
    timestamp — i.e. the Algo 1 time filter must exclude the worker
    within one staleness window.  True for [Crash], [Hang], [Gc_pause]
    and [Wst_stall]. *)

(** {1 Text format} *)

val time_to_string : Engine.Sim_time.t -> string
(** Shortest exact unit: ["2s"], ["2500ms"], ["150us"], ["42ns"]. *)

val entry_to_string : entry -> string
val to_string : t -> string

val parse : string -> (t, string) result
(** Parse a whole plan file.  Errors carry the 1-based line number.
    Entries are returned sorted by [at] (stable).  A time whose value
    does not fit in a nanosecond count is an error, not a wrapped
    value. *)

val load : string -> (t, string) result
(** [parse] of a file's contents; [Error] on unreadable files too. *)

val lint : workers:int -> t -> (unit, string list) result
(** Static checks against the device shape: worker ids in range,
    positive durations and delays, slowdown factor at least 2.
    Returns every problem, not just the first. *)
