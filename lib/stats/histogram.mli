(** Log-bucketed latency histogram.

    Records non-negative values (latencies in nanoseconds, event counts,
    sizes) into geometrically spaced buckets, giving bounded relative
    quantile error with O(1) recording — the standard HdrHistogram-style
    trick.  Every latency percentile reported in EXPERIMENTS.md comes
    out of one of these. *)

type t

val create : ?significant_digits:int -> ?max_value:float -> unit -> t
(** [create ()] covers [\[0, max_value\]] (default 1e12, i.e. 1000 s in
    nanoseconds) with roughly [10^(-significant_digits)] relative error
    (default 2 digits, ~1%). *)

val record : t -> float -> unit
(** Record one observation.  Negative values raise
    [Invalid_argument]; values beyond [max_value] are clamped into the
    top bucket. *)

val count : t -> int
[@@test_only]
(** Observations recorded since creation or the last {!reset}. *)

val mean : t -> float
(** Mean of recorded values.  0 when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]].  Returns the upper edge of
    the bucket containing the p-th ordered observation, capped at the
    largest value recorded; 0 when empty. *)

val reset : t -> unit
