(** Fleet autoscaling and unit-cost accounting (Fig. 12).

    Production policy: scale out another VM whenever a device's CPU
    exceeds the safety threshold.  Worker hangs under epoll exclusive
    forced the threshold down to 30%; eliminating them let Hermes raise
    it to 40%, so the same traffic needs fewer VMs.  Unit cost is the
    fleet's VM-hours divided by traffic served, normalized like the
    paper's Fig. 12.

    The model is analytic over a traffic series: given offered load
    (CPU-seconds/second) per epoch, it computes the VM count the policy
    would hold and accumulates cost. *)

type policy = {
  threshold : float;  (** scale-out trigger, e.g. 0.30 or 0.40 *)
  vm_cores : int;
  min_vms : int;
  scale_in_hysteresis : float;
      (** scale in only when utilization would stay below
          [threshold * (1 - hysteresis)] with one fewer VM *)
}

val policy_before_hermes : policy
(** 30% threshold on 32-core VMs. *)

val policy_after_hermes : policy
(** 40% threshold. *)

type epoch = { offered_cpu : float; traffic_units : float }
(** One accounting period: demanded CPU-seconds/second and traffic
    volume (arbitrary units, e.g. normalized requests). *)

type outcome = {
  vm_series : int array;
  vm_hours : float;
  traffic_total : float;
  unit_cost : float;  (** vm_hours / traffic_total *)
}

val simulate : policy -> epoch array -> epoch_hours:float -> outcome
(** Walk the epochs, applying scale-out/scale-in with hysteresis.
    @raise Invalid_argument on empty input or non-positive
    [epoch_hours]. *)
