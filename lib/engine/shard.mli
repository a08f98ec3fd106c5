(** One logical process (LP) of a sharded simulation.

    A shard bundles a private {!Sim} instance, a private trace-recorder
    context (optionally backed by a bounded {!Trace.Ring}), and an
    outbox of timestamped cross-shard messages.  A cluster of [n]
    devices always decomposes into [n] device LPs plus one control LP,
    so every schedule, trace sequence number and message stamp is a
    function of the decomposition alone.

    Shards never share mutable state; all interaction goes through
    {!post}ed messages that the {!Coordinator} delivers at horizon
    boundaries, sorted by [(at, src, seq)]. *)

type t

type message = {
  at : Sim_time.t;  (** virtual delivery time at the destination *)
  src : int;  (** sending shard id *)
  dst : int;  (** destination shard id *)
  seq : int;  (** per-sender monotone stamp; breaks [(at, src)] ties *)
  action : unit -> unit;  (** runs on the destination's sim at [at] *)
}

val create : id:int -> ?trace_capacity:int -> unit -> t
(** A member shard with its own fresh simulator and its own recorder
    context.  With [trace_capacity] the context records into a private
    ring of that capacity (read back with {!records}); without it the
    shard records nothing. *)

val control : sim:Sim.t -> t
(** Wrap the caller's simulator as the control LP (id 0).  The control
    shard keeps the ambient recorder context — events emitted while
    control code runs go wherever the caller's {!Trace.install}
    pointed them — and is driven by the caller's own
    [Sim.run_until], never by {!run_to}. *)

val id : t -> int
val sim : t -> Sim.t

val post : t -> dst:int -> at:Sim_time.t -> (unit -> unit) -> unit
(** Append a message to this shard's outbox.  [at] must be at least
    one lookahead past the sender's current window — the coordinator
    checks nothing; senders are trusted to respect the horizon
    contract. *)

val drain_outbox : t -> message list
(** All pending outgoing messages in send order; the outbox is left
    empty. *)

val deliver : t -> message -> unit
(** Schedule [message.action] on this shard's simulator at
    [message.at].  Call only between rounds (the destination must not
    be mid-{!run_to}). *)

val run_to : t -> limit:Sim_time.t -> unit
(** Run this shard's simulator to [limit] with the shard's recorder
    context swapped in, restoring the caller's context afterwards.  On
    the control shard it raises [Invalid_argument] (the caller drives
    the control sim). *)

val with_context : t -> (unit -> 'a) -> 'a
(** Run [f] with this shard's recorder context installed, restoring
    the previous context afterwards (even on exceptions).  Used by the
    cluster to make control-time device mutations — creation, fault
    arming — record into the device's own trace stream. *)

val records : t -> Trace.record list
(** Retained trace records, oldest first ([[]] without a ring). *)

val dropped_records : t -> int
(** Records overwritten because the ring was full ([0] without a
    ring) — lets callers detect a truncated merge. *)
