(** Random-variate distributions used by the workload generators.

    A distribution is first-order data, one constructor per family,
    and {!sample} draws from it with one [match] that allocates only
    its boxed result.  The module provides the families the Hermes
    evaluation needs: exponential
    inter-arrival gaps (Poisson processes), Pareto and lognormal request
    sizes / processing times (heavy tails for Table 1's P99 gaps), Zipf
    tenant popularity (the "top three tenants carry 40/28/22% of traffic"
    skew from §7), and empirical distributions fitted to quantile
    targets. *)

type t
(** A sampleable distribution over non-negative floats.  Sampling is
    bit-identical to the closure-based sampler in [test/sampling_ref.ml],
    the test oracle: each family performs the same float operations in
    the same order on the same uniform draws. *)

val sample : t -> Rng.t -> float
(** Draw one variate. *)

val mean_of : t -> Rng.t -> int -> float
(** [mean_of d rng n] empirically estimates the mean from [n] samples
    (used in tests and calibration). *)

val constant : float -> t
(** Degenerate point mass. *)

val uniform : lo:float -> hi:float -> t
(** Uniform on [\[lo, hi)]. *)

val exponential : mean:float -> t
(** Exponential with the given mean. *)

val bounded_pareto : shape:float -> lo:float -> hi:float -> t
(** Pareto truncated to [\[lo, hi\]]; keeps heavy tails while avoiding
    unbounded simulated processing times. *)

val lognormal_of_quantiles : p50:float -> p99:float -> t
(** Lognormal whose median and 99th percentile match the given targets:
    this is how the Region profiles reproduce Table 1's columns. *)

val mixture : (float * t) list -> t
(** Weighted mixture.  Weights need not sum to one; they are
    normalized.  @raise Invalid_argument on an empty list or
    non-positive total weight. *)

(** {1 Discrete distributions} *)

module Zipf : sig
  type t
  (** Zipf(s) over ranks [0 .. n-1]: rank [k] has probability
      proportional to [1 / (k+1)^s].  Sampling is O(log n) by inverse
      transform over precomputed cumulative weights. *)

  val create : n:int -> s:float -> t
  val sample : t -> Rng.t -> int
end

val categorical : float array -> Rng.t -> int
(** [categorical weights rng] draws an index with probability
    proportional to its weight.  @raise Invalid_argument if all weights
    are zero or any is negative. *)
