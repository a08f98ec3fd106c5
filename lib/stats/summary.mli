(** Exact summary statistics over small sample sets.

    Where a histogram's bucketed quantiles are too coarse — e.g. the
    per-worker CPU-utilization standard deviations of Fig. 13, computed
    over 32 workers — these helpers operate on the raw samples. *)

val mean : float array -> float
(** 0 on an empty array. *)

val stddev : float array -> float
(** Population standard deviation; 0 for fewer than 2 samples. *)

val min_max : float array -> float * float
(** @raise Invalid_argument on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] is the nearest-rank percentile of a copy-sorted
    [xs] (total [Float.compare] order).  @raise Invalid_argument on an
    empty array, p outside [0, 100], or any NaN sample — NaN has no
    rank, so admitting it would make the result order-dependent. *)

val coefficient_of_variation : float array -> float
(** stddev / mean; 0 when the mean is 0. *)

val jain_fairness : float array -> float
(** Jain's fairness index [(sum x)^2 / (n * sum x^2)]: 1.0 is perfectly
    balanced, 1/n is maximally skewed.  Used as an extra balance metric
    alongside the paper's standard deviations. *)
