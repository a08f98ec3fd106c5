(** Per-worker metric hooks — the "+ shm_*" lines of Fig. 9.

    A hooks value is bound to one worker's column of one WST; the
    worker's event loop calls it at the instrumentation points.  Each
    call tallies an estimated cycle cost so the Counter row of Table 5
    can be reproduced: timestamp stores and [atomic fetch-add]s
    dominate, growing with the number of connection and event
    operations. *)

type t

val create : wst:Wst.t -> worker:int -> t
(** [worker] is the index within [wst] (a within-group index under
    two-level grouping). *)

val avail_update : t -> now:Engine.Sim_time.t -> unit
(** Fig. 9 line 12: record entry into the event loop. *)

val busy_count : t -> int -> unit
(** Fig. 9 lines 14 and 18: add the batch size, then -1 per handled
    event. *)

val conn_count : t -> int -> unit
(** Fig. 9 lines 25 and 37: +1 on accept, -1 on close. *)

val cycles : t -> int
(** Cumulative estimated cycles spent in these hooks. *)

val reset_accounting : t -> unit
