(** The retired binary-heap event queue, kept as a reference.

    This is the engine {!Sim} shipped before the timing-wheel rewrite,
    preserved for two jobs:

    - the qcheck differential suite ([test/test_engine.ml]) replays
      random schedule/cancel/run_until programs against both engines
      and demands identical [(time, seq)] firing order; and
    - the scheduler benchmarks ([bench/main.exe]) measure the wheel's
      speedup against this baseline {e in the same run}, which is what
      the [sched] rows of [bench/baseline.json] gate.

    It deliberately retains the old cancellation behaviour — [cancel]
    only flips a flag, so the action closure and heap slot leak until
    the entry is drained and [pending_count] is O(n) — because that
    cost is exactly what the benchmarks quantify.  The one fix over
    the shipped version: [run_until] skims cancelled entries off the
    heap top before comparing against [limit], so it can no longer
    fire an event beyond [limit] when tombstones head the queue (the
    wheel never had that failure mode, and the differential suite
    requires agreement).  Like the wheel, [run_until] cut short by
    [stop] leaves the clock at the last fired event while events up
    to the limit remain. *)

type t

type handle

val create : unit -> t
val now : t -> Sim_time.t
val schedule : t -> at:Sim_time.t -> (unit -> unit) -> handle
val schedule_after : t -> delay:Sim_time.t -> (unit -> unit) -> handle
val cancel : t -> handle -> unit
val is_pending : t -> handle -> bool

val pending_count : t -> int
(** O(n) over the heap, dead entries included — the cost the wheel's
    live counter removes. *)

val step : t -> bool
val run : t -> unit
val run_until : t -> limit:Sim_time.t -> unit
val stop : t -> unit
val events_fired : t -> int

val occupancy : t -> int
(** Physical heap entries, tombstones included. *)
