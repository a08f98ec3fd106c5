(** Cascading worker filter — Algorithm 1.

    [schedule] reads the WST and applies the configured filter cascade:
    FilterTime drops workers whose event-loop timestamp is stale
    (hung/crashed), then FilterCount keeps workers whose connection
    count — and, in the next stage, pending-event count — is below the
    surviving set's average plus the θ offset.  The survivors are
    encoded as a 64-bit bitmap (bit i = worker i selected) ready for
    one atomic eBPF-map store.

    Two engines share the cascade semantics.  The bitmap-native engine
    ([run] over a reusable {!scratch}) keeps the survivor mask as two
    native-int bitmap halves and fills caller-owned snapshot buffers
    via {!Wst.read_into}; with tracing disabled a pass allocates zero
    minor-heap words — §5.3.2's requirement of logic embedded in every
    event loop, taken literally.  {!Ref} is the original bool-array
    implementation, kept as the differential baseline: both produce
    bit-identical bitmaps, cutoffs and trace events on every input,
    which the qcheck suite pins. *)

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

val schedule :
  config:Config.t -> wst:Wst.t -> now:Engine.Sim_time.t -> result
(** [run] + [result] on a fresh scratch — the convenient allocating
    form for tests and cold callers. *)

(** {1 Reference engine} *)

module Ref : sig
  val schedule :
    config:Config.t -> wst:Wst.t -> now:Engine.Sim_time.t -> result
  (** The original bool-array implementation: allocates a snapshot and
      mask per call.  Semantically identical to {!schedule} (same
      bitmaps, same trace events) — kept as the qcheck differential
      baseline and the benchmark's before-side. *)
end

(** {1 Cascade primitives} *)

val filter_time :
  threshold:Engine.Sim_time.t ->
  now:Engine.Sim_time.t ->
  times:Engine.Sim_time.t array ->
  bool array ->
  unit
(** FilterTime (Algo 1 lines 9-10) over a live mask, in place.
    Exposed for unit tests and ablations. *)

val filter_count : theta_ratio:float -> values:int array -> bool array -> unit
(** FilterCount (Algo 1 lines 11-13): computes the average over live
    workers, keeps those with [value < avg + theta] where
    [theta = max 1 (theta_ratio * avg)] — the floor keeps an idle
    system (average zero) from filtering out every worker. *)
