(** Proactive service degradation (Appendix C, exception case 1).

    Established connections cannot be migrated between workers, so when
    a core stays overloaded Hermes resets a subset of its connections;
    clients reconnect and the new SYNs are dispatched — by the normal
    Hermes path — to healthy workers.  L7 tenants tolerate this because
    request-level success matters more than L4 connection stability.

    The planner is a pure function from observed state to a shed plan,
    so policies are unit-testable; the LB device applies the plan by
    sending RSTs. *)

type shed_item = { worker : int; shed : int }
type plan = shed_item list
(** For each overloaded worker, how many of its connections to reset. *)

type policy = {
  util_threshold : float;
      (** a worker is overloaded when its utilization is at or above
          this (e.g. 0.95) *)
  shed_fraction : float;  (** fraction of its connections to reset *)
  min_shed : int;  (** always reset at least this many when shedding *)
}

val plan :
  policy:policy -> utilization:float array -> conn_counts:int array -> plan
(** Decide how much each worker should shed.  Workers below the
    threshold shed nothing; a worker with no connections sheds
    nothing.  @raise Invalid_argument if array lengths differ. *)
