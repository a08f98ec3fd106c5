(** Hierarchical timing wheel: the priority queue behind {!Sim}.

    A hashed hierarchy of {e levels}, each an array of [32] slots.
    Level [l] has tick granularity [32{^l}] ns, so ten levels cover
    [2{^50}] ns (about 13 days of virtual time) before the {e spill
    list} — a sorted overflow for the far future — takes over.

    Placement uses the prefix rule: an entry lives at the lowest level
    [l] whose 5-bit time digit differs from the wheel clock's, in the
    slot named by that digit.  Two consequences make the wheel both
    fast and exactly ordered:

    - every occupied slot is at or ahead of the level's cursor, so the
      earliest pending entry is always in the {e lowest} non-empty
      level and advancing never scans empty regions tick by tick;
    - a level-0 slot holds entries of exactly one timestamp, and since
      every slot list is appended at its tail and cascades preserve
      list order, those entries are already in sequence-number order —
      the wheel reproduces the binary heap's [(time, seq)] order bit
      for bit (see the differential suite in [test/test_engine.ml])
      without sorting.

    {b Single-entry jump.}  When the lowest non-empty slot holds one
    entry, that entry is the global minimum (every lower level is
    empty), so the clock moves straight to it instead of cascading it
    level by level.  Otherwise each entry cascades down at most once
    per level over its lifetime, so [add]/[next_before] are amortised
    O(1).

    {b Storage.}  Entries live in a struct-of-arrays store: parallel
    int arrays for time, sequence number, generation and the
    [prev]/[next] links of intrusive circular slot lists (each closed
    by a sentinel index, so unlinking needs no list id), plus one
    action array.  [add] takes an index from a free list; firing and
    {!cancel} unlink the entry and return its index at once, dropping
    the action closure — there are no tombstones and no compaction.
    The store therefore grows only to the high-water mark of
    simultaneously pending entries (by doubling); it never shrinks.
    At steady state [add], [cancel] and firing allocate nothing. *)

type t

val create : unit -> t

val add : t -> time:int -> seq:int -> (unit -> unit) -> int
(** [add t ~time ~seq f] registers [f] to be returned once the wheel
    reaches [time] and returns its {e handle}: the entry's index packed
    with the index's current generation.  [(time, seq)] must be unique
    and [seq] monotone across live entries for the firing order to be
    deterministic.
    @raise Invalid_argument if [time] is before the wheel clock. *)

val cancel : t -> int -> unit
(** O(1): unlinks the entry named by a handle, drops its closure and
    frees its index.  A handle whose entry already fired or was
    cancelled is stale — its generation no longer matches — and
    cancelling it is a no-op, even when its index now holds another
    entry.  Negative handles name nothing. *)

val is_live : t -> int -> bool
(** True until the handle's entry is fired or cancelled; false for a
    stale or negative handle. *)

val live_count : t -> int
(** Number of live entries — O(1). *)

val capacity : t -> int
[@@test_only]
(** Entry indices allocated: at least the high-water mark of live
    entries, grown by doubling, never shrunk.  Exposed for the
    cancellation-churn regression test. *)

val next_before : t -> limit:int -> int
(** Index of the earliest live entry with [time <= limit], advancing
    the wheel clock to its time, or [-1] — leaving every entry with
    [time > limit] pending — otherwise.  The entry stays live until
    {!take}.  The wheel clock never advances past
    [min limit (earliest pending)], so later [add]s at any
    [time >= limit] remain valid. *)

val time : t -> int -> int
(** Time of the entry at an index returned by {!next_before}. *)

val take : t -> int -> unit -> unit
(** [take t i] frees the entry at index [i] (as returned by
    {!next_before}) and returns its action, which the caller runs. *)

val earliest : t -> int
(** Time of the earliest live entry, [max_int] when empty.  Does not
    move the wheel clock; O(size of the lowest non-empty slot). *)
