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

val record_n : t -> float -> int -> unit
(** Record the same value [n] times (cheap bulk insert). *)

val count : t -> int
val total : t -> float
val mean : t -> float
(** Mean of recorded values.  0 when empty. *)

val min_value : t -> float
val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]].  Returns the upper edge of
    the bucket containing the p-th ordered observation; 0 when empty. *)

val stddev : t -> float
(** Population standard deviation of the {e exact} recorded values
    (Welford running moments, stable for large-magnitude samples such
    as ns timestamps); 0 for fewer than 2 samples. *)

val merge_into : src:t -> dst:t -> unit
(** Add all of [src]'s observations into [dst].  The two histograms
    must have identical bucket layouts — same [significant_digits] and
    [max_value]; anything else raises [Invalid_argument], including
    layouts that merely coincide in bucket count. *)

val reset : t -> unit

val cdf_points : t -> (float * float) list
(** [(value, cumulative_fraction)] pairs for the non-empty buckets, in
    increasing value order — ready to print as a CDF series. *)
