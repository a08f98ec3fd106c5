(** Canary rollout with connection draining (Fig. 11's long tail).

    Hermes was deployed by gradually adding new-version VMs while
    phasing out old ones.  A removed VM stops taking new connections
    but keeps serving established ones until they drain — mobile
    clients drop quickly, IoT/cloud clients linger for days — so
    Region 1's delayed-probe counts decayed over ~11 days while
    Region 2's fell immediately.  This module models the rollout
    schedule and the residual probe traffic to old VMs. *)

type client_mix = {
  fast_fraction : float;  (** clients whose connections drain quickly *)
  fast_mean_hours : float;
  slow_mean_hours : float;
}

val mobile_heavy : client_mix
(** Region-2-like: drains in hours. *)

val iot_heavy : client_mix
(** Region-1-like: a slow tail lasting ~11 days. *)

type config = {
  rollout_days : int;  (** days over which old VMs are phased out *)
  old_hang_probes_per_day : float;
      (** delayed probes/day a fully old fleet produces *)
  new_hang_probes_per_day : float;  (** same for the new version *)
  mix : client_mix;
}

val delayed_probes_series : config -> days:int -> float array
(** Fig. 11's series: expected delayed probes per day across the
    rollout, converging to the new-version floor. *)
