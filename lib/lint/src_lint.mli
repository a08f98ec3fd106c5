(** Source lints, run by [hermes_sim verify] and CI.

    - Concurrency: forbid every use of [Atomic.], [Mutex.],
      [Condition.] and [Domain.] in [lib/engine] and [lib/trace],
      which run on one domain.
    - Dead exports: every [val] of a [lib/] interface must be named by
      some implementation other than its own. *)

type violation = {
  file : string;
  line : int;  (** 1-based *)
  token : string;  (** the forbidden module, e.g. ["Atomic"] *)
  context : string;  (** the offending source line, trimmed *)
}

val strip : string -> string
(** Comments (nested, string-aware), string / quoted-string / char
    literals replaced by spaces; newlines preserved. *)

val scan_source : file:string -> string -> violation list
(** Lint one compilation unit's source text. *)

val scan_tree : root:string -> (violation list, string) result
(** Lint every [.ml]/[.mli] under [root]'s [lib/engine] and
    [lib/trace].  [Error] if neither directory exists (wrong
    [--src-root]). *)

(** {1 Dead exports} *)

type dead_export = {
  mli : string;
  line : int;  (** 1-based line of the [val] *)
  name : string;
}

val dead_exports :
  mlis:(string * string) list -> mls:(string * string) list -> dead_export list
(** [dead_exports ~mlis ~mls] takes (path, source) pairs and returns
    each [val] in an interface of [mlis] whose name, as an identifier
    in comment- and string-stripped source, appears in no implementation
    of [mls] other than the interface's own ([x.mli]'s [x.ml]).
    Operator [val]s are not checked. *)

val scan_dead_exports : root:string -> (dead_export list, string) result
(** {!dead_exports} over every [.mli] under [root]'s [lib/], against
    every [.ml] under its [lib/], [bin/], [bench/], [perfbench/],
    [examples/] and [test/] (build and hidden directories skipped).
    [Error] if [lib/] holds no interface (wrong [--src-root]). *)
