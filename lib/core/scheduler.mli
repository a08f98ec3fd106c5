(** Cascading worker filter — Algorithm 1.

    [schedule] reads the WST and applies the configured filter cascade:
    FilterTime drops workers whose event-loop timestamp is stale
    (hung/crashed), then FilterCount keeps workers whose connection
    count — and, in the next stage, pending-event count — is below the
    surviving set's average plus the θ offset.  The survivors are
    encoded as a 64-bit bitmap (bit i = worker i selected) ready for
    one atomic eBPF-map store.

    The engine ([run] over a reusable {!scratch}) keeps the survivor
    mask as two native-int bitmap halves and fills caller-owned
    snapshot buffers via {!Wst.read_into}; with tracing disabled a pass
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
(** Reusable per-scheduler state: snapshot buffers sized for
    {!Wst.max_workers} plus the bitmap mask.  Single-threaded by
    construction — one per worker event loop. *)

val make_scratch : unit -> scratch

val run : scratch -> config:Config.t -> wst:Wst.t -> now:Engine.Sim_time.t -> unit
(** One scheduler invocation over a whole WST (a worker group under
    two-level grouping), leaving the outcome in the scratch.  With
    tracing disabled this performs zero minor-heap allocation. *)

(** Outcome of the last [run] on this scratch, read without
    allocating. *)

val passed : scratch -> int
val after_time : scratch -> int

val result : scratch -> result
(** The last [run]'s outcome as a fresh {!result} record. *)
