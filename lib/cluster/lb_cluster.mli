(** A cluster of L7 LB devices behind one VIP (§6.1's "8 LBs in total
    for load sharing and failure recovery").

    The L4 tier spreads new connections across the member devices by
    flow hash (ECMP-style); members can be added, put into draining
    (no new connections, existing ones finish — how canary rollouts
    phase VMs out), and removed once empty.  [rolling_replace]
    implements the §6.2 canary: add a new-version device, drain an
    old one, wait, remove, repeat.

    {2 Execution}

    Every member device runs on its own {!Engine.Sim} and records into
    its own trace state; the caller's simulator is the control clock
    that carries the L4 spread, the rollout logic and the aggregate
    counters.  Every cluster<->device interaction takes one network
    {!hop}, scheduled straight into the target simulator.  A recurring
    tick on the control simulator runs every member, in slot order, to
    the control clock, so driving the control sim with
    [Sim.run_until] drives the whole fleet.  Do {e not} drive it with
    [Sim.run]: the tick re-arms itself, so the queue never empties.

    When the caller's recorder has a sink as a member is created, the
    member records too, and each tick forwards the members' new
    records into the caller's recorder, merged in
    [(time, slot, member order)]: one deterministic stream, the same
    view as a single device's.  Traces, counters and schedules are
    functions of the slot decomposition alone. *)

type t

val hop : Engine.Sim_time.t
(** The latency of every cluster<->device interaction and the tick
    width: the modelled client RTT, {!Lb.Cost.client_rtt} (100 µs). *)

val create :
  sim:Engine.Sim.t ->
  rng:Engine.Rng.t ->
  tenants:Netsim.Tenant.t array ->
  devices:int ->
  mode:Lb.Device.mode ->
  ?workers:int ->
  unit ->
  t
(** A cluster of [devices] identical members, all started. *)

val size : t -> int
(** Members currently in the cluster (serving or draining). *)

val in_rotation : t -> int
[@@test_only]
(** Members accepting new connections. *)

val devices : t -> (int * Lb.Device.t) list
(** Live [(slot, device)] pairs. *)

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
(** Control-side connection callbacks.  They fire one {!hop} after
    the device-side event. *)

val connect : t -> tenant:int -> events:events -> unit
(** L4 spread: pick an in-rotation member pseudo-randomly and dispatch
    through it one {!hop} later.  An empty rotation is a control-plane
    fact: [dispatch_failed] fires synchronously, before any hop. *)

val send : conn_ref -> Lb.Request.t -> unit
(** Deliver a request on the connection one {!hop} later (fire
    and forget — a request refused device-side, e.g. after a crash,
    surfaces as a missing [request_done], not a return value). *)

val close : conn_ref -> unit

val run_on : t -> slot:int -> (Lb.Device.t -> unit) -> unit
(** Run an arbitrary action against a member {e on the member's own
    simulator}, one {!hop} from now, recording into the member's
    trace.  Fault injections use this: [run_on cluster ~slot (fun dev
    -> Faults.Inject.arm ~device:dev ~plan)] arms the plan on the
    member's simulator.  The action is dropped (with the member) if
    the slot is removed before it runs.
    @raise Invalid_argument if the slot is already removed. *)

val fresh_id : t -> int
(** Cluster-wide request-id allocator (per-cluster counter). *)

(** {1 Fleet steps}

    {!rolling_replace} composes these; tests drive them one at a time. *)

val add_device : t -> mode:Lb.Device.mode -> ?workers:int -> unit -> int
[@@test_only]
(** Bring up a new member (e.g. the new software version) at the
    clock of the last tick; returns its slot. *)

val drain_device : t -> int -> unit
[@@test_only]
(** Take a member out of rotation; its established connections keep
    being served until they close.
    @raise Invalid_argument for a removed slot. *)

val live_conns : t -> int -> int
[@@test_only]
(** Established connections still on a member, as of the last
    tick. *)

val remove : t -> int -> unit
[@@test_only]
(** Remove a member immediately: its counters fold into the cluster
    aggregates, it stops running, and whatever is still in flight to
    it is dropped — abandoned along with the removed VM.
    @raise Invalid_argument if the slot was already removed; removal
    is not idempotent, so double-removal is a harness bug worth
    failing loudly on. *)

val remove_when_drained :
  t -> int -> ?poll:Engine.Sim_time.t -> on_removed:(unit -> unit) -> unit ->
  unit
[@@test_only]
(** Wait (polling) until the member is drained, then remove it.  A
    member is drained when every connection {!connect} handed it has
    been answered at the control side ([established] or
    [dispatch_failed]) and its device reports no live connection.
    Calls [on_removed] immediately if the slot is already gone. *)

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
    device, drain the old one, wait until it is drained (as for
    {!remove_when_drained}) or [max_drain] (default 30 s) has passed,
    remove it, continue.  Connections still on a member removed at the
    deadline are abandoned with it, like long-lived IoT clients: they
    see no close or reset. *)

val completed : t -> int
(** Sum of completed requests over members, including removed ones. *)

val dropped : t -> int
