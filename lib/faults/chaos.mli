(** Seeded, replayable chaos runs.

    One chaos run is fully determined by [(config, plan)]: a fresh
    simulator, device, prober and workload generator are built from
    the seed, the plan is armed ({!Inject.arm}), invariant monitors
    ({!Monitor}) consume the run's trace stream online, and the
    outcome combines their verdicts with the usual latency and loss
    numbers.  Running the same plan with the same seed twice produces
    byte-identical trace streams — the property the qcheck replay test
    pins down. *)

type config = {
  mode : Lb.Device.mode;
  workers : int;
  tenants : int;
  seed : int;
  horizon : Engine.Sim_time.t;  (** traffic + injection window *)
  drain : Engine.Sim_time.t;
      (** extra quiet time after [horizon] for in-flight work to
          land before the monitors take their final sweep *)
  probes : bool;  (** run the per-worker health prober alongside *)
}

val default_config : config
(** Hermes mode, 8 workers, 4 tenants, seed [0xC0FFEE], 6 s horizon,
    300 ms drain, probes on. *)

val default_plan : Plan.t
(** The canonical all-classes plan: hang, WST write stall, eBPF
    program fault, crash → isolate → recover, map-sync delay with a
    probe-loss burst, accept-queue overflow, and a duty-cycle
    slowdown — spread over the 6 s default horizon so no two windows
    overlap on the same worker. *)

type outcome = {
  label : string;  (** mode name *)
  monitor : Monitor.report;
  completed : int;
  drops : int;
  resets : int;
  p50_ms : float;
  p99_ms : float;
  probes_sent : int;
  probes_delayed : int;
  trace_events : int;  (** records seen — the replay-equality witness *)
}

val run : ?capture:(Trace.record -> unit) -> ?plan:Plan.t -> config -> outcome
(** Execute one chaos run.  [capture] sees every trace record (after
    the monitors), e.g. to tee the stream to a file or hash it for
    replay comparison.  Records through its own sink for the duration
    ({!Trace.with_sink}): an already installed sink keeps receiving
    the run's records and stays installed. *)

val print_outcome : outcome -> unit
(** Human-readable summary: headline numbers, one line per exclusion
    window and fallback episode, then the verdict. *)
