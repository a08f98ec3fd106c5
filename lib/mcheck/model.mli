(** Systematic concurrency checker: DFS over thread interleavings with
    dynamic partial-order reduction (Flanagan–Godefroid), sleep sets,
    an optional preemption bound, vector-clock happens-before race
    detection on non-atomic accesses, and deadlock / lost-wakeup
    detection.

    A scenario is ordinary code written against {!Mcheck_shim.PRIM}
    and instantiated with {!P}: every shimmed operation becomes a
    scheduling point (an OCaml effect capturing the continuation), so
    "threads" are cooperative fibers and the explorer owns the
    schedule.  {!check} re-executes the scenario once per
    non-equivalent interleaving.

    Model restrictions: scenarios must be deterministic given the
    schedule; [Condition.signal] wakes the longest-waiting thread;
    spurious wakeups are not modelled; at most 16 fibers. *)

(** The scheduler-controlled primitives.  Only usable inside a
    {!check} scenario; calling them outside raises. *)
module P : Mcheck_shim.PRIM

type config = {
  max_interleavings : int;
      (** Exploration budget: total executions + sleep-set prunes.
          {!outcome.budget_exhausted} is set when it is hit. *)
  max_steps : int;
      (** Per-execution step budget; exceeding it is reported as a
          livelock counterexample. *)
  preemption_bound : int option;
      (** When set, branches requiring more than this many
          preemptions are skipped ({!outcome.bounded} reports whether
          any were). *)
  dpor : bool;
      (** [false] disables the reduction (exhaustive DFS over all
          interleavings) — only for differential-testing the explorer
          itself. *)
}

val default_config : config
(** 100_000 interleavings, 2_000 steps, no preemption bound, DPOR
    on. *)

type race = {
  loc : string;  (** location label, e.g. ["deque0.arr[3]"] *)
  access_a : string;
  access_b : string;
}
(** Two conflicting non-atomic accesses unordered by happens-before in
    some explored interleaving. *)

type counterexample = {
  kind : string;  (** ["deadlock"], ["exception"], ["violation"], ["step-budget"] *)
  message : string;
  trace : string list;  (** the interleaving, one scheduled op per line *)
}

type outcome = {
  name : string;
  executions : int;  (** complete interleavings executed *)
  prunes : int;  (** runs cut short by sleep-set blocking *)
  steps_total : int;
  max_depth : int;  (** longest interleaving, in scheduling points *)
  races : race list;  (** deduplicated across all executions *)
  counterexample : counterexample option;
  budget_exhausted : bool;
  bounded : bool;  (** some branch was pruned by the preemption bound *)
}

val check :
  ?config:config -> ?final:(unit -> unit) -> name:string -> (unit -> unit) -> outcome
(** [check ~name scenario] explores every non-equivalent interleaving
    of [scenario] (run as fiber "main"; it spawns the rest via
    [P.Thread.spawn]).  [final] runs after each complete execution —
    raise from it (e.g. a failed [assert]) to report the schedule as a
    counterexample.  Exploration stops at the first counterexample.
    Not reentrant. *)
