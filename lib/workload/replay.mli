(** Traffic trace recording and rate-scaled replay.

    §6.2's methodology: traffic from the problematic cases was
    "collected and replayed ... at 2 to 3 times the original rate".  A
    trace is a timestamped script of client operations, generated once
    from a profile; replaying it at rate [k] divides every timestamp by
    [k], so the same connections and requests arrive proportionally
    faster.  Replaying one recorded trace against all three modes
    removes generator noise from the comparison. *)

type op =
  | Connect of { at : Engine.Sim_time.t; key : int; tenant : int }
  | Send of {
      at : Engine.Sim_time.t;
      key : int;
      op_class : Lb.Request.op;
      size : int;
      cost : Engine.Sim_time.t;
    }
  | Close of { at : Engine.Sim_time.t; key : int }

type trace

val record :
  profile:Profile.t ->
  tenants:int ->
  duration:Engine.Sim_time.t ->
  rng:Engine.Rng.t ->
  trace
(** Generate a trace offline (no device involved): Poisson arrivals
    and per-connection request scripts per the profile, truncated at
    [duration]. *)

val ops : trace -> op list
[@@test_only]
(** In timestamp order.  The recorded script, for tests. *)

val replay : trace -> device:Lb.Device.t -> rate:float -> unit
(** Schedule the whole trace onto the device's simulator, timestamps
    scaled by [1/rate].  Requests addressed to connections that are not
    yet established are buffered client-side and flushed on
    establishment; requests to reset connections are dropped. *)
