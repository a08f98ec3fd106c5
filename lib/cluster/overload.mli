(** Device-wide overload handling (Appendix C, exception case 2).

    When node-local scheduling stops helping because {e every} worker
    is saturated, Hermes escalates: classify the overload, then either
    migrate the offending tenant to an isolation sandbox (attacks) or
    scale the fleet in phases (legitimate surges).

    Attribution works on a per-tenant accounting window from the
    device: a tenant that contributes a dominant share of new
    connections while carrying almost no useful work per connection
    looks like a SYN flood; a dominant share of CPU with outsized
    per-request cost looks like a CC attack; overload without a
    dominant tenant is legitimate. *)

type verdict =
  | Not_overloaded
  | Syn_flood_suspected of { tenant : int; conn_share : float }
  | Cc_suspected of { tenant : int; cpu_share : float }
  | Legit_surge

val pp_verdict : Format.formatter -> verdict -> unit

type thresholds = {
  util_trigger : float;  (** device utilization that counts as overload *)
  conn_rate_trigger : float;
      (** new connections per worker per second that counts as overload
          even at low CPU — a SYN flood squats pool slots and accept
          queues without burning cycles *)
  dominance : float;  (** share of conns/CPU that singles out a tenant *)
  flood_cpu_per_conn : Engine.Sim_time.t;
      (** below this useful CPU per new connection, the conns are junk *)
}

val default_thresholds : thresholds

val classify :
  thresholds:thresholds ->
  utilization:float ->
  window:Engine.Sim_time.t ->
  workers:int ->
  tenants:Lb.Device.tenant_stats array ->
  verdict
(** Pure attribution over one accounting window.
    @raise Invalid_argument on a non-positive window or worker count. *)

type response =
  | No_action
  | Quarantine of int  (** sandbox this tenant *)
  | Scale of Shuffle_shard.decision  (** phased fleet scaling *)

val respond :
  verdict -> current_vms:int -> utilization:float -> target:float ->
  headroom_vms:int -> response
(** Map a verdict to the Appendix C response: attacks are sandboxed,
    legitimate surges go through the phased scaling planner. *)

(** {1 The closed loop} *)

type monitor

val watch :
  device:Lb.Device.t ->
  ?thresholds:thresholds ->
  check_every:Engine.Sim_time.t ->
  on_verdict:(verdict -> unit) ->
  unit ->
  monitor
(** Periodically measure device utilization and the tenant window,
    classify, report, and {e act}: a suspected attack tenant is
    quarantined on the device immediately.  Runs until [unwatch]. *)

val unwatch : monitor -> unit
