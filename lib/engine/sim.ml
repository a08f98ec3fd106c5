(* Discrete-event simulation driver, backed by the hierarchical
   timing wheel in [Wheel].  The wheel owns ordering, cancellation and
   storage; this layer owns the virtual clock, the trace timestamp,
   the stop flag and the fired-event counter.

   The wheel reproduces the retired binary heap's exact (time, seq)
   firing order — the golden-trace conformance harness depends on it,
   and test/test_engine.ml proves it differentially against the
   retired heap, [Oracles.Ref_heap] — while making [cancel] O(1) (the
   entry is unlinked and its closure dropped at once, where the heap
   leaked it until drain)
   and [pending_count] O(1).  A handle is the wheel's integer entry
   handle, so scheduling, cancelling and firing allocate nothing
   beyond the caller's closure. *)

type handle = int

type t = {
  wheel : Wheel.t;
  mutable clock : Sim_time.t;
  mutable seq : int;
  mutable stopping : bool;
  mutable fired : int;
}

let create () =
  {
    wheel = Wheel.create ();
    clock = 0;
    seq = 0;
    stopping = false;
    fired = 0;
  }

let now t = t.clock
let null_handle = -1

let schedule t ~at action =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule: at=%d is before now=%d" at t.clock);
  let seq = t.seq in
  t.seq <- seq + 1;
  Wheel.add t.wheel ~time:at ~seq action

let schedule_after t ~delay action =
  if delay < 0 then invalid_arg "Sim.schedule_after: negative delay";
  schedule t ~at:(Sim_time.add t.clock delay) action

let cancel t ev = Wheel.cancel t.wheel ev
let is_pending t ev = Wheel.is_live t.wheel ev
let pending_count t = Wheel.live_count t.wheel

let fire t i =
  let time = Wheel.time t.wheel i in
  let action = Wheel.take t.wheel i in
  t.clock <- time;
  Trace.set_now time;
  t.fired <- t.fired + 1;
  action ()

let step t =
  let i = Wheel.next_before t.wheel ~limit:max_int in
  if i < 0 then false
  else begin
    fire t i;
    true
  end

let run t =
  t.stopping <- false;
  while (not t.stopping) && step t do
    ()
  done

let rec run_slice t ~limit =
  if not t.stopping then begin
    let i = Wheel.next_before t.wheel ~limit in
    if i >= 0 then begin
      fire t i;
      run_slice t ~limit
    end
  end

let run_until t ~limit =
  t.stopping <- false;
  run_slice t ~limit;
  (* After a [stop], events up to [limit] may still be pending: the
     clock must not pass them. *)
  if t.clock < limit && ((not t.stopping) || Wheel.earliest t.wheel > limit)
  then begin
    t.clock <- limit;
    Trace.set_now limit
  end

let stop t = t.stopping <- true
let events_fired t = t.fired
