(** Periodic health probing (§6.2, Fig. 11).

    The monitoring plane sends probes through the normal dispatch path
    and measures end-to-end delay.  The LB has no probe fast path, so a
    healthy device answers well under 1 ms; a probe over 200 ms
    signals a hung or overloaded worker and is what Fig. 11 counts
    before/after the Hermes rollout. *)

type config = {
  interval : Engine.Sim_time.t;
  timeout : Engine.Sim_time.t;  (** lost after this long *)
  delayed_threshold : Engine.Sim_time.t;  (** 200 ms in production *)
}

val default_config : config

(** {1 Per-worker probing}

    "We periodically send probes to {e all workers}" — the prober
    below keeps one persistent monitoring connection per worker and
    measures each worker's request turnaround, so a single hung or
    overloaded worker is visible no matter where new connections are
    being steered. *)

module Per_worker : sig
  type t

  val start : config:config -> target:Device.t -> t
  val stop : t -> unit
  val sent : t -> int
  val delayed : t -> int
  val delayed_by_worker : t -> int array
end
