(** Plain-text table rendering for the benchmark harness.

    Every experiment prints its result in the same row/column shape the
    paper uses, so EXPERIMENTS.md can show paper-vs-measured side by
    side.  Columns are sized to their widest cell. *)

type t

val create : header:string list -> t
val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val add_separator : t -> unit
(** Insert a horizontal rule between row groups. *)

val render : t -> string
[@@test_only]
(** The table as text: what {!print} writes. *)

val print : t -> unit
(** [render] followed by [print_string]. *)

val cell_f : float -> string
(** Format a float compactly: 3 significant decimals below 10, fewer
    above, scientific for very large magnitudes. *)

val cell_pct : float -> string
(** Render a fraction as a percentage with two decimals. *)
