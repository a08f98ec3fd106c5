(** Structured event tracing for the scheduling decision points.

    The paper's claims are {e ordering} claims — which worker a wakeup
    chose, which filter dropped whom, which socket the eBPF dispatcher
    picked — so end-state counters cannot distinguish a correct policy
    from a wrong one that happens to balance load.  This recorder
    captures every such decision as a typed event with a virtual-time
    stamp, for the golden-trace conformance harness ([test/golden]) and
    for offline inspection ([hermes_sim run --trace out.jsonl]).

    The design mirrors kernel tracepoints: one process-wide sink,
    installed explicitly; instrumented call sites guard event
    construction behind {!enabled}, so a disabled recorder costs one
    load and one branch per decision point — nothing is allocated,
    formatted, or buffered.  Events are stamped with the installing
    simulation's virtual clock (fed by {!set_now} from the simulator's
    event loop) and a monotone sequence number, so captured traces are
    bit-for-bit deterministic across runs. *)

type policy = Lifo | Rr | All | Fifo  (** wait-queue wakeup policy *)

type via = Prog | Hash
(** Reuseport selection path: eBPF-bitmap-overridden or default hash. *)

type column = Avail | Busy | Conn  (** WST row written *)

type io = Accept_io | Read_io  (** epoll readiness kind *)

type stage = By_time | By_conn | By_event
(** Algo 1 filter stage: staleness, connection count, pending events. *)

type outcome = Select | Fallback | Drop | Redirect
(** eBPF program verdict. *)

type teardown = By_close | By_reset | By_restart | By_isolate
(** Why userspace removed a sockmap entry: the connection closed or
    was reset, or its worker restarted or was isolated. *)

(** The fault class of a fault-plan action. *)
type fault =
  | Crash | Isolate | Recover | Hang | Gc_pause | Slowdown | Wst_stall | Map_sync_delay
  | Ebpf_fail | Probe_loss | Accept_overflow | Splice_desync

val fault_name : fault -> string
(** The stable fault-class name used in traces and plan files:
    ["crash"], ["hang"], ["wst_stall"], ["ebpf_fail"], … *)

val fault_of_name : string -> fault option
(** Inverse of {!fault_name}. *)

type event =
  | Wq_wake of { policy : policy; queue : int list; woken : int list; steps : int }
      (** One wait-queue traversal: the queue snapshot before the walk
          (head first), the workers actually woken in wake order, and
          the number of waiter callbacks invoked. *)
  | Epoll_dispatch of { worker : int; events : (int * io * int) list }
      (** A non-empty [epoll_wait] batch handed to a worker:
          (fd, kind, units) in delivery order. *)
  | Sched_filter of { stage : stage; cutoff : float; survivors : int64; live : int }
      (** One stage of the Algo 1 cascade: the cutoff applied (staleness threshold in ns, or
          [avg + θ]) and the surviving-worker mask after the stage. *)
  | Sched_result of { bitmap : int64; passed : int; total : int; after_time : int }
      (** The cascade's final bitmap, as pushed to the kernel. *)
  | Map_update of { map : string; key : int; value : int64 }
      (** A bpf() map-update syscall — the bitmap push of Fig. 9
          line 20. *)
  | Prog_run of { prog : string; flow_hash : int; outcome : outcome; cycles : int }
      (** One eBPF dispatch-program execution and its verdict. *)
  | Rp_select of { port : int; flow_hash : int; via : via; slot : int }
      (** Reuseport socket selection for one SYN: the winning member
          slot and whether the program or the default hash chose it. *)
  | Rp_drop of { port : int; flow_hash : int }
  | Accept of { worker : int; conn : int }
  | Close of { worker : int; conn : int; reset : bool }
  | Wst_write of { worker : int; column : column; value : int }
      (** A worker's WST column update; [worker] is the within-group
          index, [value] the cell's new contents. *)
  | Probe_timeout of { tenant : int; after : int }
      (** A health probe gave up after [after] ns without a reply —
          distinguishes probe {e loss} from mere delay in traces. *)
  | Verifier_verdict of {
      prog : string;
      backend : string;
      accepted : bool;
      insns : int;
      visited : int;
      proved : int;
      residual : int;
      reason : string;
    }
      (** Load-time verifier decision for a selection program.
          [backend] is ["ast"] (structural {!Ebpf.verify}) or
          ["bytecode"] (abstract-interpretation [Verifier.verify]);
          [visited] counts abstract instruction visits, [proved] the
          fault sites discharged statically and [residual] those left
          as runtime checks.  [reason] is empty on acceptance. *)
  | Fault_inject of { fault : fault; worker : int; arg : int }
      (** A fault-plan injection fired: [fault] is the fault class,
          [worker] the target ([-1] for device-wide faults), [arg] a
          class-specific parameter (duration in ns, delay, …).  The
          invariant monitors key their windows off these events. *)
  | Fault_clear of { fault : fault; worker : int }
      (** The matching end of a bounded-duration injection (or an
          explicit recovery action). *)
  | Splice_attach of { conn : int; worker : int; key : int }
      (** Userspace installed a sockmap entry for an established
          connection: bytes for [conn] now splice in-kernel to
          [worker]; [key] is the flow-hash-derived sockmap slot. *)
  | Splice_redirect of { conn : int; worker : int; bytes : int; copied : int }
      (** One payload chunk forwarded by the kernel splice path
          ([bytes] total, of which [copied] were selectively copied up
          to userspace) — the userspace proxy never saw it. *)
  | Splice_teardown of { conn : int; worker : int; key : int; reason : teardown }
      (** Userspace removed a sockmap entry.  After this event no
          [Splice_redirect] may name [conn] — the monitors enforce
          it. *)

type record = { seq : int; time : int; event : event }
(** [time] is virtual nanoseconds ({!set_now}); [seq] a process-wide
    monotone counter reset by {!install}. *)

type sink = { write : record -> unit; close : unit -> unit }

(** {1 Recorder control} *)

val enabled : unit -> bool
(** Cheap guard for instrumentation sites:
    [if Trace.enabled () then Trace.emit (...)]. *)

val emit : event -> unit
(** Record one event (no-op when no sink is installed).  Call sites
    should guard with {!enabled} so the event is not even constructed
    when tracing is off. *)

val set_now : int -> unit
(** Update the timestamp applied to subsequent events; called by the
    simulator as its clock advances. *)

val install : sink -> unit
(** Make [sink] the active recorder (closing any previous one) and
    reset the sequence counter and clock. *)

val uninstall : unit -> unit
(** Stop recording and close the active sink.  Idempotent. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s f] installs [s], runs [f], and uninstalls — even on
    exceptions.  Called while another sink is installed, it does not
    replace it: for the duration of [f] every record goes to both
    sinks, [seq] continues the outer stream, and on exit [s] is closed
    and the outer sink, still open, is the only one again. *)

(** {1 Recorder state multiplexing}

    The recorder state (active sink, sequence counter, clock) is one
    per process.  {!swap_state} multiplexes several simulations over
    it: a cluster swaps a member device's state in around running its
    events and swaps the previous state back afterwards, so each
    member keeps an independent sink, monotone sequence counter and
    clock. *)

type state
(** One recorder context: a sink (or none), its sequence counter and
    its clock. *)

val make_state : sink option -> state
(** A fresh context with the given sink, sequence 0 and clock 0. *)

val swap_state : state -> state
(** [swap_state s] installs [s] as the recorder context and returns
    the previously installed one.  All subsequent {!emit} /
    {!set_now} / {!install} calls act on [s] until the next swap. *)

(** {1 Sinks} *)

val jsonl_sink : out_channel -> sink
(** One JSON object per line; flushed on close.  The channel itself is
    not closed. *)

val text_sink : out_channel -> sink
(** The {!render} form, one event per line — the golden-file format. *)

val file_sink : string -> sink
(** [file_sink path] creates [path] and records into it: in the
    {!Binary} format when [path] ends in [.bin], as JSON lines
    otherwise.  [close] closes the file.
    @raise Sys_error if the file cannot be created. *)

(** {1 Binary trace format}

    A compact fixed-width alternative to {!jsonl_sink} for
    multi-million-event soaks: an 8-byte magic followed by framed
    records of little-endian 64-bit words.  Each record's first word
    packs a tag (low 8 bits) and a payload word count, so readers can
    skip records without decoding them and the file is mmap-able.  The
    payload holds the event's fields in the schema's order: ints as
    words, enums as their code, lists as a length then the elements.
    Strings are interned — each distinct string is emitted once as a
    definition record and referenced by integer id thereafter.
    Decoding a binary trace yields the {e same} {!record} values the
    JSONL sink would have serialised, event for event
    ([hermes_sim trace-dump] feeds them to {!jsonl_sink} or
    {!text_sink}). *)

module Binary : sig
  exception Corrupt of string
  (** Raised by the decoder on truncation, unknown tags, undefined
      string ids, out-of-range enum codes, or a record whose payload
      is not exactly its event's fields. *)

  val sink : out_channel -> sink
  (** Writes the magic ["HTRCBIN2"] (the stream's first 8 bytes;
      streams of the earlier [HTRCBIN1] layout are rejected as
      {!Corrupt}) immediately, then one framed record per
      {!emit}, buffered and handed to the channel in 64 KiB chunks.
      Writing an event without string fields allocates nothing.
      Flushes on close; the channel itself is not closed. *)

  val iter_channel : in_channel -> (record -> unit) -> unit
  (** Decode records in stream order, calling the callback on each
      event record (string-definition records are consumed
      internally).  @raise Corrupt on malformed input. *)
end

(** {1 Rendering} *)

val render_event : event -> string
[@@test_only]

val render : record -> string
[@@test_only]
(** Stable single-line form: right-aligned timestamp, then the event —
    one {!text_sink} line. *)

val json_of_record : record -> string
[@@test_only]
(** One {!jsonl_sink} line. *)

val json_string : string -> string
(** RFC 8259 quoted string literal, as trace JSON writes strings. *)
