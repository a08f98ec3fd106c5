(** Simulated time.

    Virtual time is an integer count of nanoseconds since simulation
    start.  A 63-bit OCaml [int] holds about 292 years of nanoseconds,
    far beyond the two-simulated-days horizon of the longest experiment
    (Fig. 13), so no boxing is needed. *)

type t = int
(** Nanoseconds.  Exposed as [int] so arithmetic stays allocation-free
    in the event-loop hot path; use the constructors below rather than
    raw literals for readability. *)

val zero : t
val ns : int -> t
val us : int -> t
val ms : int -> t
val sec : int -> t
val hours : int -> t

val of_sec_f : float -> t
(** Convert fractional seconds, rounding to the nearest nanosecond. *)

val of_us_f : float -> t
val to_sec_f : t -> float
val to_us_f : t -> float

val add : t -> t -> t
val sub : t -> t -> t

val min : t -> t -> t

val to_string : t -> string
(** Human-readable rendering with an adaptive unit (ns/µs/ms/s). *)
