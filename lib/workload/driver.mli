(** Open-loop workload driver.

    Drives a device with a profile: Poisson connection arrivals,
    timer-paced requests per connection (clients do not wait for the LB
    — overload therefore builds queues instead of throttling arrivals,
    which is what makes Table 3's heavy rows degrade), and a
    warm-up/measure protocol that excludes ramp-up transients from the
    reported numbers. *)

type t

val start :
  device:Lb.Device.t ->
  profile:Profile.t ->
  rng:Engine.Rng.t ->
  ?reconnect_on_reset:bool ->
  unit ->
  t
(** Begin generating immediately; arrivals continue until [stop].
    [reconnect_on_reset] (default false): a reset connection is
    reopened once, modelling client retry after proactive
    degradation. *)

val stop : t -> unit

val conns_opened : t -> int
[@@test_only]

val requests_sent : t -> int
[@@test_only]
(** Connections opened and requests sent so far. *)

type report = {
  label : string;
  avg_ms : float;
  p50_ms : float;
  p99_ms : float;
  throughput_krps : float;
  completed : int;
  drops : int;
  resets : int;
  duration_s : float;
}

val run :
  device:Lb.Device.t ->
  profile:Profile.t ->
  rng:Engine.Rng.t ->
  warmup:Engine.Sim_time.t ->
  measure:Engine.Sim_time.t ->
  ?reconnect_on_reset:bool ->
  unit ->
  report
(** The standard experiment protocol: start the device and the
    generator, run [warmup], clear measurements, run [measure], stop,
    and summarize.  Drives the device's simulator; the device must not
    be otherwise driven concurrently. *)
