(* Fault-injection subsystem tests: plan text format and lint, the
   staleness-exclusion regression (a worker whose availability
   timestamp stops advancing mid-epoch must be excluded on the next
   scheduling pass), the chaos invariant monitors end to end, and the
   qcheck replay property (same plan + same seed => byte-identical
   trace streams). *)

let schedule = Drive.schedule

let check = Alcotest.check

module ST = Engine.Sim_time
module Plan = Faults.Plan

(* ------------------------------------------------------------------ *)
(* Plan text format *)

let test_plan_roundtrip () =
  let text =
    "# header comment\n\
     at 500ms hang worker=2 duration=400ms\n\
     \n\
     at 1s ebpf_fail duration=300ms\n\
     at 2s crash worker=5\n\
     at 2600ms recover worker=5\n\
     at 3s slowdown worker=1 factor=4 duration=250ms\n\
     at 3500ms map_sync_delay delay=20ms duration=100ms\n"
  in
  match Plan.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok plan ->
    check Alcotest.int "entries" 6 (List.length plan);
    (* Print and reparse: same plan. *)
    let printed = Plan.to_string plan in
    (match Plan.parse printed with
    | Error e -> Alcotest.failf "reparse failed: %s" e
    | Ok plan2 ->
      check Alcotest.bool "round-trips" true (plan = plan2));
    (* Entries come back sorted by time. *)
    let times = List.map (fun (e : Plan.entry) -> e.at) plan in
    check Alcotest.bool "sorted" true (List.sort compare times = times)

let test_plan_parse_errors () =
  let bad msg text =
    match Plan.parse text with
    | Ok _ -> Alcotest.failf "expected parse error for %s" msg
    | Error e ->
      check Alcotest.bool (msg ^ " names a line") true
        (String.length e > 0 && String.sub e 0 5 = "line ")
  in
  bad "unknown kind" "at 1s meteor worker=1\n";
  bad "missing duration" "at 1s hang worker=1\n";
  bad "bad time" "at soon crash worker=1\n";
  bad "bad shape" "crash at 1s worker=1\n";
  bad "unknown key" "at 1s crash worker=1 blast=3\n";
  (* out-of-range times are errors, not wrapped values (these once
     parsed as 76627963145224192ns, -808ms and a negative duration) *)
  bad "time overflow" "at 9300000000s crash worker=0\n";
  bad "time wraps negative" "at 9223372036854775s crash worker=0\n";
  bad "duration overflow" "at 1s hang worker=0 duration=9223372036855ms\n"

(* Random plans over all twelve fault classes print and reparse to
   themselves. *)
let arb_any_plan =
  let open QCheck.Gen in
  let time = oneof [ nat; map (fun n -> n * 1_000_000) nat; int_range 0 max_int ] in
  let action =
    oneof
      [
        map (fun worker -> Plan.Crash { worker }) int;
        map (fun worker -> Plan.Isolate { worker }) int;
        map (fun worker -> Plan.Recover { worker }) int;
        map2 (fun worker duration -> Plan.Hang { worker; duration }) int time;
        map2 (fun worker duration -> Plan.Gc_pause { worker; duration }) int time;
        map3
          (fun worker factor duration -> Plan.Slowdown { worker; factor; duration })
          int int time;
        map2 (fun worker duration -> Plan.Wst_stall { worker; duration }) int time;
        map2 (fun delay duration -> Plan.Map_sync_delay { delay; duration }) time time;
        map (fun duration -> Plan.Ebpf_fail { duration }) time;
        map (fun duration -> Plan.Probe_loss { duration }) time;
        map2 (fun worker duration -> Plan.Accept_overflow { worker; duration }) int time;
        map2 (fun worker duration -> Plan.Splice_desync { worker; duration }) int time;
      ]
  in
  let by_time = List.stable_sort (fun a b -> compare a.Plan.at b.Plan.at) in
  QCheck.make ~print:Plan.to_string
    (map by_time (list_size (0 -- 12) (map2 (fun at action -> { Plan.at; action }) time action)))

let test_plan_roundtrip_property =
  QCheck.Test.make ~count:500 ~name:"parse (to_string p) = Ok p" arb_any_plan (fun p ->
      Plan.parse (Plan.to_string p) = Ok p)

(* Truncated or byte-flipped plan text parses or returns Error. *)
let test_plan_fuzz =
  let text = Plan.to_string Faults.Chaos.default_plan in
  let n = String.length text in
  let mutant =
    QCheck.Gen.(
      oneof
        [
          map (fun k -> String.sub text 0 k) (int_bound n);
          map2
            (fun i x ->
              String.mapi (fun j c -> if i = j then Char.chr (Char.code c lxor x) else c) text)
            (int_bound (n - 1)) (int_range 1 255);
        ])
  in
  QCheck.Test.make ~count:2000 ~name:"mutated plan: Ok or Error, never raises"
    (QCheck.make ~print:String.escaped mutant)
    (fun s -> match Plan.parse s with Ok _ | Error _ -> true)

let test_plan_lint () =
  let plan =
    Plan.
      [
        { at = ST.sec 1; action = Hang { worker = 9; duration = ST.ms 100 } };
        { at = ST.sec 2; action = Crash { worker = 3 } };
        {
          at = ST.sec 3;
          action = Slowdown { worker = 0; factor = 1; duration = ST.ms 50 };
        };
      ]
  in
  (match Plan.lint ~workers:8 plan with
  | Ok () -> Alcotest.fail "lint should reject worker 9 and factor 1"
  | Error problems -> check Alcotest.int "two problems" 2 (List.length problems));
  match Plan.lint ~workers:16 (List.tl plan) with
  | Ok () -> Alcotest.fail "factor 1 still bad"
  | Error problems -> check Alcotest.int "one problem" 1 (List.length problems)

let test_builtin_plan_lints_clean () =
  match
    Plan.lint ~workers:Faults.Chaos.default_config.Faults.Chaos.workers
      Faults.Chaos.default_plan
  with
  | Ok () -> ()
  | Error problems -> Alcotest.failf "builtin plan: %s" (String.concat "; " problems)

(* ------------------------------------------------------------------ *)
(* Staleness-exclusion regression: a frozen availability timestamp
   excludes the worker on the very next pass once [now - ts] reaches
   the threshold — boundary exact, no off-by-one-window. *)

let test_frozen_timestamp_excluded_next_pass () =
  let config = Hermes.Config.default in
  let threshold = config.Hermes.Config.avail_threshold in
  let wst = Hermes.Wst.create ~workers:4 in
  let t0 = ST.ms 10 in
  for w = 0 to 3 do
    Hermes.Wst.set_avail wst w ~now:t0
  done;
  (* Worker 2's loop stalls at [t0]; the others keep refreshing. *)
  let bit w bitmap = Int64.logand (Int64.shift_right_logical bitmap w) 1L in
  let pass ~now =
    List.iter (fun w -> Hermes.Wst.set_avail wst w ~now) [ 0; 1; 3 ];
    schedule ~config ~wst ~now
  in
  (* One instant before the threshold: still included. *)
  let r = pass ~now:(t0 + threshold - 1) in
  check Alcotest.int64 "included at threshold-1" 1L (bit 2 r.Hermes.Scheduler.bitmap);
  (* At exactly [t0 + threshold]: excluded, on this pass, not the next. *)
  let r = pass ~now:(t0 + threshold) in
  check Alcotest.int64 "excluded at threshold" 0L (bit 2 r.Hermes.Scheduler.bitmap);
  check Alcotest.int "others survive" 3 r.Hermes.Scheduler.passed;
  (* The reference engine agrees on the boundary. *)
  let r_ref =
    Oracles.Scheduler_ref.schedule ~config ~wst ~now:(t0 + threshold)
  in
  check Alcotest.int64 "ref engine agrees" 0L (bit 2 r_ref.Hermes.Scheduler.bitmap);
  (* Recovery: the moment the timestamp advances again, re-admitted. *)
  Hermes.Wst.set_avail wst 2 ~now:(t0 + threshold);
  let r = pass ~now:(t0 + threshold + 1) in
  check Alcotest.int64 "re-admitted after refresh" 1L (bit 2 r.Hermes.Scheduler.bitmap)

let test_wst_stall_gates_avail_only () =
  let wst = Hermes.Wst.create ~workers:2 in
  let cell f = let t, e, c = Oracles.Scheduler_ref.read_all wst in (f (t, e, c)).(0) in
  Hermes.Wst.set_avail wst 0 ~now:(ST.ms 1);
  Hermes.Wst.set_stall wst 0 true;
  Hermes.Wst.set_avail wst 0 ~now:(ST.ms 50);
  check Alcotest.int "avail frozen" (ST.ms 1) (cell (fun (t, _, _) -> t));
  Hermes.Wst.add_busy wst 0 3;
  Hermes.Wst.add_conn wst 0 1;
  check Alcotest.int "busy still lands" 3 (cell (fun (_, e, _) -> e));
  check Alcotest.int "conn still lands" 1 (cell (fun (_, _, c) -> c));
  Hermes.Wst.set_stall wst 0 false;
  Hermes.Wst.set_avail wst 0 ~now:(ST.ms 60);
  check Alcotest.int "avail resumes" (ST.ms 60) (cell (fun (t, _, _) -> t))

(* ------------------------------------------------------------------ *)
(* End-to-end chaos invariants *)

let small_config =
  {
    Faults.Chaos.default_config with
    Faults.Chaos.workers = 4;
    tenants = 2;
    horizon = ST.ms 900;
    drain = ST.ms 200;
    probes = false;
  }

let test_hang_excluded_within_window () =
  let plan =
    [ { Plan.at = ST.ms 100; action = Plan.Hang { worker = 1; duration = ST.ms 600 } } ]
  in
  let o = Faults.Chaos.run ~plan small_config in
  check (Alcotest.list Alcotest.string) "no violations" []
    o.Faults.Chaos.monitor.Faults.Monitor.violations;
  match o.Faults.Chaos.monitor.Faults.Monitor.exclusions with
  | [ e ] ->
    check Alcotest.string "hang window" "hang" (Trace.fault_name e.Faults.Monitor.fault);
    check Alcotest.int "worker 1" 1 e.Faults.Monitor.worker;
    check Alcotest.int "zero dispatches past deadline" 0
      e.Faults.Monitor.late_dispatches;
    check Alcotest.int "connections all accounted" 0
      o.Faults.Chaos.monitor.Faults.Monitor.lost
  | es -> Alcotest.failf "expected one exclusion window, got %d" (List.length es)

let test_ebpf_fallback_and_recovery () =
  let plan =
    [ { Plan.at = ST.ms 100; action = Plan.Ebpf_fail { duration = ST.ms 300 } } ]
  in
  let o = Faults.Chaos.run ~plan small_config in
  check (Alcotest.list Alcotest.string) "no violations" []
    o.Faults.Chaos.monitor.Faults.Monitor.violations;
  match o.Faults.Chaos.monitor.Faults.Monitor.fallbacks with
  | [ fb ] ->
    check Alcotest.bool "hash fallback engaged" true fb.Faults.Monitor.engaged;
    check Alcotest.bool "within bound" true (fb.Faults.Monitor.prog_before_engage <= 1);
    check Alcotest.bool "bitmap dispatch resumed" true
      (fb.Faults.Monitor.prog_after_restore > 0)
  | fbs -> Alcotest.failf "expected one fallback episode, got %d" (List.length fbs)

(* ------------------------------------------------------------------ *)
(* Replay determinism: same plan + same seed => byte-identical traces *)

let render_run ~plan ~seed =
  let buf = Buffer.create (1 lsl 16) in
  let config = { small_config with Faults.Chaos.seed; horizon = ST.ms 500 } in
  let o =
    Faults.Chaos.run
      ~capture:(fun r ->
        Buffer.add_string buf (Trace.render r);
        Buffer.add_char buf '\n')
      ~plan config
  in
  (Buffer.contents buf, o.Faults.Chaos.trace_events)

let arb_plan =
  let open QCheck in
  let action =
    Gen.oneof
      [
        Gen.map (fun w -> Plan.Crash { worker = w }) (Gen.int_bound 3);
        Gen.map2
          (fun w d -> Plan.Hang { worker = w; duration = ST.ms (1 + d) })
          (Gen.int_bound 3) (Gen.int_bound 200);
        Gen.map2
          (fun w d -> Plan.Wst_stall { worker = w; duration = ST.ms (1 + d) })
          (Gen.int_bound 3) (Gen.int_bound 200);
        Gen.map (fun d -> Plan.Ebpf_fail { duration = ST.ms (1 + d) }) (Gen.int_bound 200);
        Gen.map
          (fun d -> Plan.Map_sync_delay { delay = ST.ms 5; duration = ST.ms (1 + d) })
          (Gen.int_bound 200);
        Gen.map2
          (fun w d -> Plan.Accept_overflow { worker = w; duration = ST.ms (1 + d) })
          (Gen.int_bound 3) (Gen.int_bound 200);
      ]
  in
  let entry =
    Gen.map2
      (fun at action -> { Plan.at = ST.ms (10 + at); action })
      (Gen.int_bound 400) action
  in
  make
    ~print:(fun plan -> Plan.to_string plan)
    Gen.(map (List.stable_sort compare) (list_size (1 -- 4) entry))

let test_replay_determinism =
  QCheck.Test.make ~count:10 ~name:"same plan + seed => identical trace" arb_plan
    (fun plan ->
      let t1, n1 = render_run ~plan ~seed:7 in
      let t2, n2 = render_run ~plan ~seed:7 in
      n1 = n2 && String.equal t1 t2)

(* A chaos run inside an outer recording ([hermes_sim run chaos
   --trace]) leaves its fault records in the outer stream, and leaves
   the outer sink installed and open. *)
let test_chaos_under_outer_sink () =
  let faults = ref 0 and closed = ref false in
  let outer =
    {
      Trace.write =
        (fun r ->
          match r.Trace.event with
          | Trace.Fault_inject _ | Trace.Fault_clear _ -> incr faults
          | _ -> ());
      close = (fun () -> closed := true);
    }
  in
  let config =
    {
      Faults.Chaos.default_config with
      workers = 4;
      horizon = ST.ms 300;
      drain = ST.ms 50;
      probes = false;
    }
  in
  let plan = [ { Plan.at = ST.ms 100; action = Plan.Hang { worker = 1; duration = ST.ms 50 } } ] in
  Trace.with_sink outer (fun () ->
      ignore (Faults.Chaos.run ~plan config);
      check Alcotest.bool "outer sink still open" false !closed;
      check Alcotest.bool "outer sink still installed" true (Trace.enabled ()));
  check Alcotest.int "inject and clear reach the outer sink" 2 !faults

let test_different_seed_differs () =
  (* Sanity for the property above: the trace is seed-sensitive, so
     byte equality is not vacuous. *)
  let plan =
    [ { Plan.at = ST.ms 50; action = Plan.Hang { worker = 0; duration = ST.ms 100 } } ]
  in
  let t1, _ = render_run ~plan ~seed:1 in
  let t2, _ = render_run ~plan ~seed:2 in
  check Alcotest.bool "different seeds diverge" false (String.equal t1 t2)

(* A plan's stall rides a carrier connection that outlives it; once
   the stall lifts the worker holds no live connection. *)
let test_stall_leaves_no_live_conn () =
  let sim = Engine.Sim.create () in
  let device =
    Lb.Device.create ~sim ~rng:(Engine.Rng.create 5)
      ~mode:(Lb.Device.Hermes Hermes.Config.default) ~workers:2
      ~tenants:(Netsim.Tenant.population ~n:1 ~base_dport:20000) ()
  in
  Lb.Device.start device;
  Faults.Inject.arm ~device
    ~plan:[ { Plan.at = ST.ms 1; action = Plan.Hang { worker = 0; duration = ST.ms 2 } } ];
  Engine.Sim.run_until sim ~limit:(ST.ms 10);
  check Alcotest.(array int) "no live connection" [| 0; 0 |]
    (Lb.Device.conns_per_worker device)

(* A restart drops the carrier with its pending stall: no client held
   it, so no close is traced and no reset counted.  The next stall
   makes a fresh carrier and still stalls the worker. *)
let test_restart_drops_carrier_silently () =
  let sim = Engine.Sim.create () in
  let device =
    Lb.Device.create ~sim ~rng:(Engine.Rng.create 5)
      ~mode:(Lb.Device.Hermes Hermes.Config.default) ~workers:2
      ~tenants:(Netsim.Tenant.population ~n:1 ~base_dport:20000) ()
  in
  Lb.Device.start device;
  Faults.Inject.arm ~device
    ~plan:
      [
        { Plan.at = ST.ms 1; action = Plan.Hang { worker = 0; duration = ST.ms 2 } };
        { Plan.at = ST.ms 10; action = Plan.Crash { worker = 0 } };
        { Plan.at = ST.ms 12; action = Plan.Recover { worker = 0 } };
        { Plan.at = ST.ms 20; action = Plan.Hang { worker = 0; duration = ST.ms 5 } };
      ];
  let w0 = Lb.Device.worker device 0 in
  let busy_before = ref 0 in
  ignore
    (Engine.Sim.schedule sim ~at:(ST.ms 19) (fun () ->
         busy_before := Lb.Worker.cpu_busy w0));
  let records =
    Capture.records (fun () -> Engine.Sim.run_until sim ~limit:(ST.ms 30))
  in
  let closes =
    List.filter
      (fun r -> match r.Trace.event with Trace.Close _ -> true | _ -> false)
      records
  in
  check Alcotest.int "no close traced" 0 (List.length closes);
  check Alcotest.int "no reset counted" 0 (Lb.Worker.stats w0).Lb.Worker.resets;
  check Alcotest.bool "the later stall still stalls" true
    (Lb.Worker.cpu_busy w0 - !busy_before >= ST.ms 5)

(* The canonical plan's faults lose no connection from any worker's
   books: once the driver and the prober stop and the run drains, every
   connection a worker accepted is closed, reset or still held. *)
let test_counters_balance_after_plan () =
  let cfg = Faults.Chaos.default_config in
  List.iter
    (fun mode ->
      let sim = Engine.Sim.create () in
      let rng = Engine.Rng.create cfg.Faults.Chaos.seed in
      let device =
        Lb.Device.create ~sim ~rng:(Engine.Rng.split rng) ~mode:(Lb.Device.of_mode mode)
          ~workers:cfg.workers
          ~tenants:(Netsim.Tenant.population ~n:cfg.tenants ~base_dport:20000)
          ()
      in
      Lb.Device.start device;
      Faults.Inject.arm ~device ~plan:Faults.Chaos.default_plan;
      let prober =
        Lb.Probe.Per_worker.start ~config:Lb.Probe.default_config ~target:device
      in
      let driver =
        Workload.Driver.start ~device
          ~profile:(Workload.Cases.profile Workload.Cases.Case1 ~workers:cfg.workers)
          ~rng ()
      in
      Engine.Sim.run_until sim ~limit:cfg.horizon;
      Workload.Driver.stop driver;
      Lb.Probe.Per_worker.stop prober;
      Engine.Sim.run_until sim ~limit:(cfg.horizon + cfg.drain);
      Array.iteri
        (fun i w ->
          let s = Lb.Worker.stats w in
          check Alcotest.int
            (Printf.sprintf "%s worker %d: accepted = closed + resets + open"
               (Hermes.Config.Mode.to_string mode) i)
            s.Lb.Worker.accepted
            (s.Lb.Worker.closed + s.Lb.Worker.resets + Lb.Worker.conn_count w))
        (Lb.Device.workers device))
    Hermes.Config.Mode.all

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "text round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "parse errors carry lines" `Quick test_plan_parse_errors;
          Alcotest.test_case "lint rejects bad targets" `Quick test_plan_lint;
          Alcotest.test_case "builtin plan lints clean" `Quick
            test_builtin_plan_lints_clean;
          Alcotest.test_case "stall leaves no live connection" `Quick
            test_stall_leaves_no_live_conn;
          Alcotest.test_case "restart drops the carrier silently" `Quick
            test_restart_drops_carrier_silently;
          QCheck_alcotest.to_alcotest test_plan_roundtrip_property;
          QCheck_alcotest.to_alcotest test_plan_fuzz;
        ] );
      ( "staleness",
        [
          Alcotest.test_case "frozen ts excluded next pass" `Quick
            test_frozen_timestamp_excluded_next_pass;
          Alcotest.test_case "stall gates avail only" `Quick
            test_wst_stall_gates_avail_only;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "hang: zero dispatches after window" `Quick
            test_hang_excluded_within_window;
          Alcotest.test_case "ebpf fail: fallback then recovery" `Quick
            test_ebpf_fallback_and_recovery;
          Alcotest.test_case "worker counters balance after plan" `Quick
            test_counters_balance_after_plan;
        ] );
      ( "replay",
        [
          QCheck_alcotest.to_alcotest test_replay_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_different_seed_differs;
          Alcotest.test_case "chaos under an outer sink" `Quick test_chaos_under_outer_sink;
        ] );
    ]
