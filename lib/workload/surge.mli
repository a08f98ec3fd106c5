(** Long-lived-connection surge generator (Fig. 3's lag effect).

    Quantitative-trading-style services establish many long-lived,
    mostly idle connections; when a trigger fires, a burst of requests
    arrives on all of them {e simultaneously}.  Under epoll exclusive
    those connections concentrated on a few workers at establishment
    time, so the burst overloads those cores long after the imbalance
    was created — the "lag effect" of §2.3. *)

type t

val establish :
  device:Lb.Device.t ->
  tenant:int ->
  count:int ->
  over:Engine.Sim_time.t ->
  t
(** Open [count] connections to [tenant], uniformly spread over [over].
    Connections stay open (no requests, no close) until burst/teardown. *)

val established_count : t -> int
[@@test_only]
(** Connections of the surge established so far. *)

val burst :
  t ->
  rng:Engine.Rng.t ->
  requests_per_conn:int ->
  cost:Engine.Sim_time.t ->
  size:int ->
  jitter:Engine.Sim_time.t ->
  unit
(** Fire [requests_per_conn] requests on every established connection,
    each delayed by an independent uniform jitter in [0, jitter] (a
    near-synchronized surge). *)

val teardown : t -> unit
(** Gracefully close all connections. *)
