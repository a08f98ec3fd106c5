(** Cascading worker filter — Algorithm 1.

    [schedule] reads the WST and applies the configured filter cascade:
    FilterTime drops workers whose event-loop timestamp is stale
    (hung/crashed), then FilterCount keeps workers whose connection
    count — and, in the next stage, pending-event count — is below the
    surviving set's average plus the θ offset.  The survivors are
    encoded as a 64-bit bitmap (bit i = worker i selected) ready for
    one atomic eBPF-map store.

    The engine ([run] over a reusable {!scratch}) keeps the survivor
    mask as two native-int bitmap halves, reads the WST's columns in
    place ({!Wst.times} and friends) and builds each stage's mask
    without data-dependent branches; with tracing disabled a pass
    allocates zero minor-heap words — §5.3.2's requirement of logic
    embedded in every event loop, taken literally.  The original
    bool-array implementation is the test suite's differential oracle:
    both produce bit-identical bitmaps, cutoffs and trace events on
    every input, which the qcheck suite pins.

    FilterTime drops a live worker when [now - timestamp >=
    avail_threshold]; FilterCount computes the average over live
    workers and keeps those with [value < avg + theta], where [theta =
    max 1 (theta_ratio * avg)] — the floor keeps an idle system
    (average zero) from filtering out every worker. *)

type result = {
  bitmap : int64;  (** coarse-filter survivors *)
  passed : int;  (** popcount of [bitmap] *)
  total : int;  (** workers considered *)
  after_time : int;  (** survivors of FilterTime (diagnostics) *)
  cycles : int;  (** estimated cycle cost of this invocation *)
}

(** {1 Zero-allocation engine} *)

type scratch
(** Reusable scheduler state: the bitmap mask and the count-stage sums,
    a few ints.  Single-threaded by construction: a pass completes
    before the next begins. *)

val make_scratch : unit -> scratch

val run : scratch -> config:Config.t -> wst:Wst.t -> now:Engine.Sim_time.t -> unit
(** One scheduler invocation over a whole WST (a worker group under
    two-level grouping), leaving the outcome in the scratch.  With
    tracing disabled this performs zero minor-heap allocation. *)

(** Outcome of the last [run] on this scratch, read without
    allocating. *)

val passed : scratch -> int
val after_time : scratch -> int
val total : scratch -> int

val bitmap : scratch -> int64
(** The survivors as the 64-bit dispatch bitmap; unboxed where the
    call is inlined. *)

val cycles : scratch -> int
(** Estimated cycle cost of the last [run]. *)

val result : scratch -> result
[@@test_only]
(** The last [run]'s outcome as a fresh {!result} record. *)
