(** Source lints over the compiler's typed tree, run by [hermes_sim
    verify] and CI.

    - Concurrency: no [lib/] unit names anything in [Stdlib]'s
      [Atomic], [Mutex], [Condition] or [Domain]; the simulator runs
      on one domain.
    - Dead exports: every [val] of a [lib/] interface has a production
      caller, unless it carries the [[\@\@test_only]] marker.

    The scan reads the [.cmt]/[.cmti] files of a build ([dune build
    \@check] writes them all); the rules are pure functions of what it
    returns. *)

type site = { file : string; line : int  (** 1-based *) }
(** A source position; [file] is relative to the repo root
    (["lib/engine/rng.mli"]). *)

type decl = {
  site : site;  (** the [val]'s line in its interface *)
  name : string;
  marked : bool;  (** carries [[\@\@test_only]] *)
}

type use = {
  at : site;  (** where the code names it *)
  path : string;  (** the resolved path, e.g. ["Stdlib.Atomic.make"] *)
  target : site option;
      (** for a value: its declaration, the [val]'s line when it comes
          from another unit's interface *)
}

val dead_exports : decl list -> use list -> decl list
(** The unmarked declarations no production caller uses.  A caller is
    a use resolving to the declaration from a [lib/] unit other than
    the val's own, or from [bin/], [bench/], [perfbench/] or
    [examples/]; [test/] never counts.  A module passed whole to a
    functor or sealed by a signature uses each value it hands over. *)

val concurrency : use list -> use list
(** The uses in [lib/] whose path goes through [Stdlib]'s [Atomic],
    [Mutex], [Condition] or [Domain]. *)

val uses_of_source : file:string -> string -> use list
[@@test_only]
(** Type-check one implementation's source against the standard
    library alone and read its uses as {!scan} reads a built unit's.
    Lets the tests drive the typed-tree reading on small programs. *)

type scan = { decls : decl list; uses : use list }

val scan : root:string -> (scan, string) result
(** Read every annotation file under the build tree of [root] (its
    [_build/default] when present, else [root] itself): the [val]s of
    each [lib/] interface, and the uses in every implementation under
    [lib/], [bin/], [bench/], [perfbench/], [examples/] and [test/].
    [Error] when no [lib/] interface annotation is found. *)
