(** Worker Status Table.

    The WST is the shared-memory structure of §5.3.1: one column per
    worker, three rows — the timestamp of the worker's last entry into
    its epoll event loop, its pending-event count, and its accumulated
    connection count.  The memory is partitioned by worker: each worker
    writes only its own column, so on real hardware a cell update is a
    single atomic store and the scheduler's full-table read needs no
    lock ({!Metrics} charges those atomic-update cycles).  The
    simulator runs on one domain, so the cells are plain ints. *)

type t

val create : workers:int -> t
(** All availability timestamps start at 0, counts at 0.
    @raise Invalid_argument unless [workers] is in 1..64:
    a larger table would silently lose workers at dispatch time, since
    the selection bitmap has exactly 64 bits. *)

val workers : t -> int

(** {1 Writers — called only by worker [w] itself} *)

val set_avail : t -> int -> now:Engine.Sim_time.t -> unit
(** Record the worker's entry into its event loop (Fig. 9 line 12).
    Dropped silently while the column is {!set_stall}ed. *)

val add_busy : t -> int -> int -> unit
(** [add_busy t w delta] — positive on epoll_wait return, -1 per
    handled event (Fig. 9 lines 14/18). *)

val add_conn : t -> int -> int -> unit
(** +1 on accept, -1 on close (Fig. 9 lines 25/37). *)

(** {1 Fault injection} *)

val set_stall : t -> int -> bool -> unit
(** [set_stall t w true] makes worker [w]'s availability-timestamp
    writes stop landing — the shared-memory write-stall fault of the
    chaos harness: the worker keeps running, but its column freezes,
    so the Algo 1 time filter must exclude it within one staleness
    window even though the process is alive.  Only the timestamp is
    gated: the busy/conn cells are deltas, and dropping deltas would
    skew the column permanently, breaking the recovery invariant this
    fault exists to test.  [set_stall t w false] lifts the stall; the
    next [set_avail] lands and re-admits the worker.
    @raise Invalid_argument if [w] is out of range. *)

(** {1 Readers} *)

val times : t -> Engine.Sim_time.t array
val events : t -> int array
val conns : t -> int array
(** The table's own columns, one cell per worker: the scheduler's
    in-place Read_SHM (Algo 1 line 3).  The pass reads them where they
    lie, with no copy — everything runs on one domain, so nothing writes
    the table during a pass.  Read-only: only the writers above change
    a cell. *)

val read_into : t -> times:Engine.Sim_time.t array -> events:int array -> conns:int array -> int
[@@test_only]
(** A snapshot of all columns into caller-owned buffers, as the
    bool-array oracle of the scheduler reads the table.  Fills index
    [0..workers-1] of each buffer and returns the worker count; slack
    beyond that is left untouched.
    @raise Invalid_argument if any buffer is shorter than the table. *)
