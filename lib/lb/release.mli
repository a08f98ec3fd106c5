(** Zero-downtime rolling worker release.

    §8 notes that Facebook steers traffic with reuseport eBPF programs
    during update releases; Hermes's machinery gives the same
    capability for free.  To upgrade a worker binary without dropping
    tenant traffic, each worker in turn is:

    + {b drained}: its dedicated sockets are unbound (new SYNs go
      elsewhere — the eBPF bitmap and the hash fallback both exclude
      it) and its Hermes availability is forced stale;
    + {b waited on}: established connections finish naturally, up to a
      grace period, after which stragglers are RST (clients reconnect
      onto already-upgraded workers);
    + {b restarted}: the "new binary" process re-binds fresh sockets
      and rejoins the bitmap.

    One worker is out of rotation at a time, so capacity never drops
    by more than 1/N and no connection is ever dispatched into a
    restart. *)

type t

type outcome = {
  workers_released : int;
  drained_gracefully : int;  (** connections that finished on their own *)
  reset_at_deadline : int;  (** stragglers RST at the grace deadline *)
  duration : Engine.Sim_time.t;
}

val start :
  device:Device.t ->
  ?grace:Engine.Sim_time.t ->
  ?poll:Engine.Sim_time.t ->
  on_done:(outcome -> unit) ->
  unit ->
  t
(** Begin a rolling release over all workers of [device], lowest id
    first.  [grace] (default 2 s) bounds per-worker draining; [poll]
    (default 50 ms) is the drain-check cadence.  The device must be in
    a dedicated-socket mode (reuseport or Hermes).
    @raise Invalid_argument in shared-socket modes. *)
