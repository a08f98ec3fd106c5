(* Scheduler-bound benchmark scenarios.

   Each scenario is a pure function of an engine module, instantiated
   twice — once over the timing-wheel [Engine.Sim], once over the
   retired binary heap [Engine.Ref_heap] — and timed in the same
   process run.  The regression metric is the wheel/heap {e speedup
   ratio}, not absolute nanoseconds: the ratio is stable across
   machines and CI runners, so the committed sched rows of
   bench/baseline.json are a meaningful baseline where raw timings
   would not be.

   The scenarios deliberately stress what the wheel fixed:
   - [probe_storm]: timeout-heavy — nearly every timeout is cancelled
     by an earlier reply, so the heap drags a tail of tombstones
     through every sift while the wheel drops them in O(1);
   - [surge]: a 64-worker arrival surge with a periodic
     [pending_count] sampler — O(1) on the wheel, a full heap scan on
     the baseline;
   - [churn]: pathological schedule/cancel churn where almost no event
     ever fires. *)

module type SCHED = sig
  type t
  type handle

  val create : unit -> t
  val now : t -> int
  val schedule_after : t -> delay:int -> (unit -> unit) -> handle
  val cancel : t -> handle -> unit
  val pending_count : t -> int
  val run : t -> unit
  val run_until : t -> limit:int -> unit
  val events_fired : t -> int
end

module Time = Engine.Sim_time

module Scenarios (S : SCHED) = struct
  (* Health-probe storm: [conns] concurrent probe chains, each round
     arming a 10 ms timeout that a quick reply cancels 31 times out of
     32.  Cancelled timeouts outlive their usefulness by ~10 ms, so
     the heap carries ~16 tombstones per live chain. *)
  let probe_storm ~conns ~rounds () =
    let sim = S.create () in
    let rng = Engine.Rng.create 42 in
    let timeouts = ref 0 in
    let rec round conn r =
      if r < rounds then begin
        let fired = ref false in
        let timeout =
          S.schedule_after sim ~delay:(Time.ms 10) (fun () ->
              fired := true;
              incr timeouts;
              round conn (r + 1))
        in
        if Engine.Rng.int rng 32 <> 0 then
          ignore
            (S.schedule_after sim
               ~delay:(Time.us (100 + Engine.Rng.int rng 900))
               (fun () ->
                 if not !fired then begin
                   S.cancel sim timeout;
                   round conn (r + 1)
                 end))
      end
    in
    for c = 0 to conns - 1 do
      round c 0
    done;
    S.run sim;
    S.events_fired sim + (!timeouts * 1000)

  (* Worker surge: every arrival re-arms one of 64 epoll-style 50 ms
     idle timeouts (cancel + reschedule), and a metrics sampler reads
     [pending_count] every 1 ms while arrivals continue.  A standing
     population of long-lived keepalive timers models the quiescent
     connection table: each sample is O(1) on the wheel but a scan of
     every keepalive on the heap. *)
  let surge ~workers ~arrivals ~keepalives () =
    let sim = S.create () in
    let rng = Engine.Rng.create 7 in
    let idle_timeouts = ref 0 in
    let sampled = ref 0 in
    let arrived = ref 0 in
    for i = 0 to keepalives - 1 do
      ignore
        (S.schedule_after sim
           ~delay:(Time.sec (3000 + (i mod 500)))
           (fun () -> ()))
    done;
    let timeout_of = Array.make workers None in
    let arm w =
      (match timeout_of.(w) with
      | Some h -> S.cancel sim h
      | None -> ());
      timeout_of.(w) <-
        Some
          (S.schedule_after sim ~delay:(Time.ms 50) (fun () ->
               timeout_of.(w) <- None;
               incr idle_timeouts))
    in
    for w = 0 to workers - 1 do
      arm w
    done;
    let rec arrival () =
      if !arrived < arrivals then begin
        incr arrived;
        let w = Engine.Rng.int rng workers in
        arm w;
        ignore (S.schedule_after sim ~delay:(Time.us 100) (fun () -> ()));
        let gap =
          if Engine.Rng.int rng 64 = 0 then Time.ms (60 + Engine.Rng.int rng 40)
          else Time.us (50 + Engine.Rng.int rng 3000)
        in
        ignore (S.schedule_after sim ~delay:gap arrival)
      end
    in
    let rec sample () =
      sampled := !sampled + S.pending_count sim;
      if !arrived < arrivals then
        ignore (S.schedule_after sim ~delay:(Time.ms 1) sample)
    in
    ignore (S.schedule_after sim ~delay:Time.zero arrival);
    ignore (S.schedule_after sim ~delay:(Time.ms 1) sample);
    S.run_until sim ~limit:(Time.hours 1);
    S.events_fired sim + (!idle_timeouts * 1000) + (!sampled * 7)

  (* Cancellation churn: batches of events scheduled and immediately
     cancelled; almost nothing ever fires.  The heap still pays a sift
     per push and per tombstone pop; the wheel reclaims via
     compaction. *)
  let churn ~batches ~batch () =
    let sim = S.create () in
    let rec go b =
      if b < batches then begin
        for i = 0 to batch - 1 do
          let h = S.schedule_after sim ~delay:(Time.us (100 + i)) (fun () -> ()) in
          S.cancel sim h
        done;
        ignore (S.schedule_after sim ~delay:(Time.us 10) (fun () -> go (b + 1)))
      end
    in
    go 0;
    S.run sim;
    S.events_fired sim
end

module Wheel_runs = Scenarios (Engine.Sim)
module Heap_runs = Scenarios (Engine.Ref_heap)

let run ~quick =
  let size = Harness.Row.size ~quick in
  let reps = if quick then 5 else 3 in
  let conns, rounds = if quick then (2048, 8) else (8192, 20) in
  let arrivals, keepalives = if quick then (150, 4096) else (600, 8192) in
  let batches, batch = if quick then (300, 200) else (1000, 400) in
  let pair name wheel heap =
    let wheel_ns, heap_ns, events = Harness.run_pair ~name ~reps wheel heap in
    Harness.Row.v ~family:"sched" ~name ~size
      [
        ("wheel_ns", wheel_ns);
        ("heap_ns", heap_ns);
        ("speedup", heap_ns /. wheel_ns);
        ("events", float_of_int events);
      ]
  in
  [
    pair "probe_storm"
      (Wheel_runs.probe_storm ~conns ~rounds)
      (Heap_runs.probe_storm ~conns ~rounds);
    pair "surge"
      (Wheel_runs.surge ~workers:64 ~arrivals ~keepalives)
      (Heap_runs.surge ~workers:64 ~arrivals ~keepalives);
    pair "churn"
      (Wheel_runs.churn ~batches ~batch)
      (Heap_runs.churn ~batches ~batch);
  ]

(* Each scenario's wheel/heap speedup stays within 10% of the committed
   same-size baseline's, and probe_storm beats the heap by >= 1.25x
   outright (the wheel's headline acceptance criterion). *)
let gates (r : Harness.Row.t) =
  let open Harness.Gate in
  v "speedup" (Rel_floor 0.9)
  :: (if r.name = "probe_storm" then [ v "speedup" (Floor 1.25) ] else [])

let family = Harness.Family.v "sched" run ~gates
