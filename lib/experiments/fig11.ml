(** Fig. 11: delayed probes per day, before and after Hermes.

    Two measurements: (1) a surge-prone workload (long-lived
    connections with periodic synchronized bursts, the pattern behind
    production worker hangs) is run under epoll exclusive and under
    Hermes with a per-worker prober counting >200 ms probes — that
    gives the before/after daily rates (one simulated minute stands in
    for one day; EXPERIMENTS.md notes the compression); (2) the canary
    rollout model overlays the replacement schedule and the
    connection-draining tail, reproducing Region 1's ~11-day decay
    versus Region 2's fast drop. *)

let name = "fig11"
let title = "#Delayed probes per day before/after Hermes"

module ST = Engine.Sim_time

let delayed_per_day ~mode ~quick =
  let device, rng = Common.make_device ~workers:8 ~tenants:4 ~mode () in
  let sim = Lb.Device.sim device in
  Lb.Device.start device;
  let prober =
    Lb.Probe.Per_worker.start
      ~config:
        {
          Lb.Probe.interval = ST.ms 100;
          timeout = ST.sec 1;
          delayed_threshold = ST.ms 200;
        }
      ~target:device
  in
  (* Background load plus the hang-inducing surges. *)
  let background =
    Workload.Profile.scale_rate
      (Workload.Cases.profile Workload.Cases.Case3 ~workers:8)
      0.4
  in
  let driver = Workload.Driver.start ~device ~profile:background ~rng () in
  (* Burst sizing: the whole surge is ~1.2 CPU-seconds of work.  Spread
     over 8 workers that is ~150 ms per core — under the 200 ms probe
     threshold; concentrated on the one or two workers that hold the
     connections under epoll exclusive, it is close to a second. *)
  let surge =
    Workload.Surge.establish ~device ~tenant:0
      ~count:(if quick then 400 else 600)
      ~over:(ST.sec 2)
  in
  let day = if quick then ST.sec 20 else ST.sec 60 in
  let cost = if quick then ST.of_us_f 1500.0 else ST.ms 1 in
  let rec burst_loop () =
    Workload.Surge.burst surge ~rng ~requests_per_conn:2 ~cost ~size:1500
      ~jitter:(ST.ms 30);
    ignore (Engine.Sim.schedule_after sim ~delay:(ST.sec 4) burst_loop)
  in
  ignore (Engine.Sim.schedule_after sim ~delay:(ST.ms 2500) burst_loop);
  Engine.Sim.run_until sim ~limit:day;
  Workload.Driver.stop driver;
  Lb.Probe.Per_worker.stop prober;
  ( float_of_int (Lb.Probe.Per_worker.delayed prober),
    Lb.Probe.Per_worker.sent prober )

let run ?(quick = false) () =
  Common.section "Fig. 11" title;
  let before, sent_b = delayed_per_day ~mode:Lb.Device.Exclusive ~quick in
  let after, sent_a = delayed_per_day ~mode:Common.hermes_default ~quick in
  Printf.printf
    "  exclusive: %.0f delayed probes / simulated day (of %d sent)\n" before
    sent_b;
  Printf.printf "  hermes:    %.0f delayed probes / simulated day (of %d sent)\n"
    after sent_a;
  let reduction =
    if before > 0.0 then 100.0 *. (1.0 -. (after /. before)) else 0.0
  in
  Printf.printf "  reduction: %.1f%% (paper: 99.8%% / 99%%)\n" reduction;
  (* Canary rollout overlay. *)
  let series_of mix rollout_days =
    Cluster.Canary.delayed_probes_series
      {
        Cluster.Canary.rollout_days;
        old_hang_probes_per_day = Float.max before 1.0;
        new_hang_probes_per_day = after;
        mix;
      }
      ~days:15
  in
  let region1 = series_of Cluster.Canary.iot_heavy 4 in
  let region2 = series_of Cluster.Canary.mobile_heavy 4 in
  let table =
    Stats.Table.create ~header:[ "Day"; "Region1-like"; "Region2-like" ]
  in
  Array.iteri
    (fun day r1 ->
      Stats.Table.add_row table
        [
          string_of_int day;
          Stats.Table.cell_f r1;
          Stats.Table.cell_f region2.(day);
        ])
    region1;
  print_string "  Canary rollout decay (delayed probes/day):\n";
  Stats.Table.print table;
  Common.note
    "paper: Region1's residual probes lasted ~11 days (slow IoT drain); Region2 dropped fast"
