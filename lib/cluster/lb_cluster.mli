(** A cluster of L7 LB devices behind one VIP (§6.1's "8 LBs in total
    for load sharing and failure recovery").

    The L4 tier spreads new connections across the member devices by
    flow hash (ECMP-style); members can be added, put into draining
    (no new connections, existing ones finish — how canary rollouts
    phase VMs out), and removed once empty.  [rolling_replace]
    implements the §6.2 canary: add a new-version device, drain an
    old one, wait, remove, repeat.

    {2 Sharded execution}

    Every member device owns a private {!Engine.Sim} and runs as one
    logical process; the caller's simulator is the control process that
    carries the L4 spread, the rollout logic and the aggregate
    counters.  Cluster<->device interaction crosses process boundaries
    as timestamped messages with a fixed [lookahead] latency, and an
    {!Engine.Coordinator} advances the fleet in lookahead-wide rounds
    (conservative synchronization) from a recurring event on the
    control simulator — so driving the control sim with
    [Sim.run_until] drives the whole fleet.  Do {e not} drive it with
    [Sim.run]: the round event re-arms itself, so the queue never
    empties.

    Rounds run every member inline on the calling domain, in slot
    order.  Traces, counters and schedules are functions of the
    logical decomposition alone; the replay harness pins
    {!merged_trace} output byte-for-byte. *)

type t

val create :
  sim:Engine.Sim.t ->
  rng:Engine.Rng.t ->
  tenants:Netsim.Tenant.t array ->
  devices:int ->
  mode:Lb.Device.mode ->
  ?workers:int ->
  ?lookahead:Engine.Sim_time.t ->
  ?trace_capacity:int ->
  unit ->
  t
(** A cluster of [devices] identical members, all started.
    [lookahead] (default {!Hermes.Runtime.cross_shard_latency}[ ()]) is
    the cross-process message latency and round width;
    [trace_capacity] (default off) gives every member a private trace
    ring of that many records for {!merged_trace}. *)

val size : t -> int
(** Members currently in the cluster (serving or draining). *)

val in_rotation : t -> int
(** Members accepting new connections. *)

val device : t -> int -> Lb.Device.t
(** Member by slot.
    @raise Invalid_argument for a removed slot. *)

val devices : t -> (int * Lb.Device.t) list
(** Live [(slot, device)] pairs. *)

val lookahead : t -> Engine.Sim_time.t
(** The cross-process message latency / synchronization round width. *)

type conn_ref = {
  cluster : t;
  slot : int;  (** member slot the connection landed on *)
  member : Lb.Device.t;
  conn : Lb.Conn.t;
}
(** A cluster-level connection handle: the member device that accepted
    it plus the connection itself. *)

type events = {
  established : conn_ref -> unit;
  request_done : conn_ref -> Lb.Request.t -> unit;
  closed : conn_ref -> unit;
  reset : conn_ref -> unit;
  dispatch_failed : unit -> unit;
}
(** Control-side connection callbacks.  They fire one [lookahead]
    after the device-side event (the marshalling latency back to the
    control process). *)

val null_events : events

val connect : t -> tenant:int -> events:events -> unit
(** L4 spread: pick an in-rotation member pseudo-randomly and dispatch
    through it one [lookahead] later.  An empty rotation is a
    control-plane fact: [dispatch_failed] fires synchronously, before
    any cross-process hop. *)

val send : conn_ref -> Lb.Request.t -> unit
(** Deliver a request on the connection one [lookahead] later (fire
    and forget — a request refused device-side, e.g. after a crash,
    surfaces as a missing [request_done], not a return value). *)

val close : conn_ref -> unit

val run_on : t -> slot:int -> (Lb.Device.t -> unit) -> unit
(** Run an arbitrary action against a member {e on the member's own
    process}, one [lookahead] from now — the cross-shard form of
    direct device access, safe under any shard count.  Fault
    injections use this: [run_on cluster ~slot (fun dev ->
    Faults.Inject.arm ~device:dev ~plan)] arms the plan on the
    member's simulator.  The action is dropped (with the member) if
    the slot is removed before delivery.
    @raise Invalid_argument if the slot is already removed. *)

val fresh_id : t -> int
(** Cluster-wide request-id allocator (per-cluster counter). *)

val add_device : t -> mode:Lb.Device.mode -> ?workers:int -> unit -> int
(** Bring up a new member (e.g. the new software version) at the
    fleet's current horizon; returns its slot. *)

val drain_device : t -> int -> unit
(** Take a member out of rotation; its established connections keep
    being served until they close.
    @raise Invalid_argument for a removed slot. *)

val live_conns : t -> int -> int
(** Established connections still on a member, as of the last
    synchronization round. *)

val remove : t -> int -> unit
(** Remove a member immediately: its counters fold into the cluster
    aggregates, its trace ring (if any) is retained for
    {!merged_trace}, and mail still in flight to it is dropped —
    abandoned along with the removed VM.
    @raise Invalid_argument if the slot was already removed; removal
    is not idempotent, so double-removal is a harness bug worth
    failing loudly on. *)

val remove_when_drained :
  t -> int -> ?poll:Engine.Sim_time.t -> on_removed:(unit -> unit) -> unit ->
  unit
(** Wait (polling) until the member has no connections, then remove
    it.  Calls [on_removed] immediately if the slot is already gone. *)

val rolling_replace :
  t ->
  new_mode:Lb.Device.mode ->
  ?workers:int ->
  ?poll:Engine.Sim_time.t ->
  ?max_drain:Engine.Sim_time.t ->
  on_done:(unit -> unit) ->
  unit ->
  unit
(** Canary rollout: for each original member, add a new-[new_mode]
    device, drain the old one, wait for it to empty (or [max_drain],
    default 30 s, after which remaining connections are abandoned to
    the removed VM, like long-lived IoT clients), remove it, continue. *)

val completed : t -> int
(** Sum of completed requests over members, including removed ones. *)

val dropped : t -> int

val merged_trace : t -> Trace.record list
(** All members' trace rings (including removed members'), merged in
    [(time, process id, per-process seq)] order and re-stamped with
    merge-order sequence numbers — one deterministic stream.  Empty
    unless the
    cluster was created with [trace_capacity]. *)

val trace_drops : t -> int
(** Records lost to ring overflow across all members — non-zero means
    {!merged_trace} is truncated and [trace_capacity] was too small. *)

