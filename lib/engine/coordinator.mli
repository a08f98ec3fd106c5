(** Conservative time synchronization across simulation shards.

    Classic lookahead-based discrete-event simulation over logical
    processes: all cross-shard interaction carries a fixed minimum
    latency [D] (the lookahead), so a round that runs every member
    shard from horizon [H - D] to [H] can never receive a message that
    should have fired inside the window it is executing — anything
    sent in that window lands strictly after [H].  The coordinator
    owns the rounds:

    + deliver control-plane messages posted since the last round,
      sorted by [(at, src, seq)];
    + run every member shard to the new horizon, in shard-id order,
      inline on the calling domain;
    + collect the members' outboxes, sort globally by
      [(at, src, seq)], and deliver.

    The sort key is a function of logical shard ids and per-sender
    stamps only, so destination-side event sequence numbers — and with
    them the merged trace — depend on the decomposition alone. *)

type t

val create : control:Shard.t -> t
(** A coordinator over no members yet, at horizon 0. *)

val add : t -> Shard.t -> unit
(** Register a member shard.  If the coordinator has already advanced,
    the new member's clock is aligned to the current horizon first. *)

val remove : t -> int -> unit
(** Unregister the member with the given shard id.  Pending messages
    addressed to it are silently dropped at delivery time — the mail
    is abandoned along with the removed VM.  Unknown ids are a
    no-op. *)

val horizon : t -> Sim_time.t
(** The virtual time every member has been run to. *)

val advance : t -> horizon:Sim_time.t -> unit
(** Execute one round up to [horizon] (steps 1–3 above).
    @raise Invalid_argument if [horizon] is behind the current one. *)
