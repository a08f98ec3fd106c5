(** Deterministic fault-plan replay.

    [arm] schedules every plan entry on the device's simulator, so the
    injections interleave with traffic in virtual time exactly the
    same way on every run with the same seed.  Each firing emits a
    {!Trace.Fault_inject} record, and every bounded-duration fault
    emits the matching {!Trace.Fault_clear} when it lifts — the
    invariant monitors key their windows off these records, so the
    trace stream alone carries the whole chaos timeline. *)

val arm : device:Lb.Device.t -> plan:Plan.t -> unit
(** Schedule the plan against the device.  Call after {!Lb.Device.create}
    and before driving the simulator; entries dated before the current
    virtual time are a programming error and raise through the
    simulator's scheduling guard.  Faults that need the Hermes runtime
    ([Wst_stall], [Map_sync_delay]) still emit their trace records in
    other modes but inject nothing, keeping the trace timeline
    comparable across the mode sweep. *)
