(* Tests for the resilience extensions: attack generators, per-tenant
   attribution and quarantine, the overload monitor, and rolling
   releases. *)

let check = Alcotest.check
let ms = Engine.Sim_time.ms
let sec = Engine.Sim_time.sec

let make_device ?(mode = Lb.Device.Hermes Hermes.Config.default) ?(workers = 4)
    ?(tenants = 4) () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create 31 in
  let tenant_arr = Netsim.Tenant.population ~n:tenants ~base_dport:20000 in
  let device =
    Lb.Device.create ~sim ~rng ~mode ~workers ~tenants:tenant_arr ()
  in
  Lb.Device.start device;
  (device, sim)

(* ------------------------------------------------------------------ *)
(* Attack generators                                                    *)

let test_syn_flood_generates () =
  let device, sim = make_device () in
  let rng = Engine.Rng.create 1 in
  let attack =
    Workload.Attack.launch ~device ~tenant:0
      ~kind:(Workload.Attack.Syn_flood { cps = 5000.0 })
      ~rng
  in
  Engine.Sim.run_until sim ~limit:(sec 1);
  Workload.Attack.stop attack;
  check Alcotest.bool "thousands of conns" true
    (Workload.Attack.conns_attempted attack > 3000);
  check Alcotest.int "no requests" 0 (Workload.Attack.requests_sent attack);
  (* flood connections pile up (they never close) *)
  let live = Array.fold_left ( + ) 0 (Lb.Device.conns_per_worker device) in
  check Alcotest.bool "conns squat" true (live > 3000)

let test_cc_burns_cpu () =
  let device, sim = make_device () in
  let rng = Engine.Rng.create 2 in
  let attack =
    Workload.Attack.launch ~device ~tenant:0
      ~kind:(Workload.Attack.Cc { cps = 200.0; request_cost = ms 10; per_conn = 2 })
      ~rng
  in
  Engine.Sim.run_until sim ~limit:(sec 1);
  Workload.Attack.stop attack;
  check Alcotest.bool "requests sent" true (Workload.Attack.requests_sent attack > 200);
  let busy =
    Array.fold_left ( + ) 0
      (Array.map Lb.Worker.cpu_busy (Lb.Device.workers device))
  in
  (* 200 cps x 2 x 10ms = 4 CPU-s/s offered on 4 cores: saturation *)
  check Alcotest.bool "device saturated" true (busy > sec 3)

(* ------------------------------------------------------------------ *)
(* Tenant attribution / quarantine                                      *)

let test_tenant_report_attribution () =
  let device, sim = make_device () in
  (* one conn for tenant 2 with one request *)
  let events =
    {
      Lb.Device.null_conn_events with
      established =
        (fun conn ->
          ignore
            (Lb.Device.send device conn
               (Lb.Request.make ~id:1 ~op:Lb.Request.Plain_proxy ~size:10
                  ~cost:(ms 3) ~tenant_id:conn.Lb.Conn.tenant_id)));
    }
  in
  Lb.Device.connect device ~tenant:2 ~events;
  Engine.Sim.run_until sim ~limit:(ms 100);
  let report = Lb.Device.tenant_report device in
  check Alcotest.int "conn attributed" 1 report.(2).Lb.Device.new_conns;
  check Alcotest.int "cpu attributed" (ms 3) report.(2).Lb.Device.cpu_consumed;
  check Alcotest.int "others clean" 0 report.(0).Lb.Device.new_conns;
  Lb.Device.reset_tenant_report device;
  check Alcotest.int "window reset" 0
    (Lb.Device.tenant_report device).(2).Lb.Device.new_conns

let test_quarantine_blocks_and_resets () =
  let device, sim = make_device () in
  let established = ref 0 and reset = ref 0 and failed = ref 0 in
  let events =
    {
      Lb.Device.null_conn_events with
      established = (fun _ -> incr established);
      reset = (fun _ -> incr reset);
      dispatch_failed = (fun () -> incr failed);
    }
  in
  for _ = 1 to 10 do
    Lb.Device.connect device ~tenant:1 ~events
  done;
  Engine.Sim.run_until sim ~limit:(ms 50);
  check Alcotest.int "all up" 10 !established;
  Lb.Device.quarantine_tenant device ~tenant:1;
  check Alcotest.bool "flagged" true (Lb.Device.is_quarantined device ~tenant:1);
  check Alcotest.int "existing conns reset" 10 !reset;
  (* new connects fail at dispatch *)
  for _ = 1 to 5 do
    Lb.Device.connect device ~tenant:1 ~events
  done;
  Engine.Sim.run_until sim ~limit:(ms 100);
  check Alcotest.int "new conns refused" 5 !failed;
  (* other tenants unaffected *)
  let ok = ref false in
  Lb.Device.connect device ~tenant:0
    ~events:
      { Lb.Device.null_conn_events with established = (fun _ -> ok := true) };
  Engine.Sim.run_until sim ~limit:(ms 150);
  check Alcotest.bool "other tenant fine" true !ok

(* SYNs queued on the tenant's port when it is quarantined fail their
   dispatch and count as drops, whether the port is one shared socket
   or a reuseport group of dedicated ones. *)
let test_quarantine_drains_queued_syns mode () =
  let device, sim = make_device ~mode ~workers:2 () in
  Engine.Sim.run_until sim ~limit:(ms 1);
  Lb.Device.crash_worker device 0;
  Lb.Device.crash_worker device 1;
  let failed = ref 0 in
  let events =
    { Lb.Device.null_conn_events with dispatch_failed = (fun () -> incr failed) }
  in
  for _ = 1 to 5 do
    Lb.Device.connect device ~tenant:1 ~events
  done;
  Engine.Sim.run_until sim ~limit:(ms 5);
  check Alcotest.int "queued, not failed" 0 !failed;
  Lb.Device.quarantine_tenant device ~tenant:1;
  check Alcotest.int "dispatch_failed" 5 !failed;
  check Alcotest.int "dropped" 5 (Lb.Device.dropped device)

(* ------------------------------------------------------------------ *)
(* Overload classification                                              *)

let stats tenant new_conns cpu =
  { Lb.Device.tenant; new_conns; cpu_consumed = cpu }

let classify =
  Cluster.Overload.classify ~thresholds:Cluster.Overload.default_thresholds
    ~window:(sec 1) ~workers:4

let test_classify_not_overloaded () =
  check Alcotest.bool "calm" true
    (classify ~utilization:0.3 ~tenants:[| stats 0 10 (ms 50) |]
    = Cluster.Overload.Not_overloaded)

let test_classify_cc () =
  let tenants =
    [| stats 0 100 (sec 3); stats 1 50 (ms 100); stats 2 50 (ms 100) |]
  in
  match classify ~utilization:0.98 ~tenants with
  | Cluster.Overload.Cc_suspected { tenant = 0; cpu_share } ->
    check Alcotest.bool "dominant cpu" true (cpu_share > 0.9)
  | v -> Alcotest.fail (Format.asprintf "wrong: %a" Cluster.Overload.pp_verdict v)

let test_classify_syn_flood () =
  (* massive junk conn rate at low CPU *)
  let tenants = [| stats 0 50_000 (ms 10); stats 1 100 (ms 500) |] in
  match classify ~utilization:0.2 ~tenants with
  | Cluster.Overload.Syn_flood_suspected { tenant = 0; conn_share } ->
    check Alcotest.bool "dominant conns" true (conn_share > 0.9)
  | v -> Alcotest.fail (Format.asprintf "wrong: %a" Cluster.Overload.pp_verdict v)

let test_classify_legit_surge () =
  let tenants =
    Array.init 4 (fun i -> stats i 1000 (sec 1))
  in
  check Alcotest.bool "no dominant tenant" true
    (classify ~utilization:0.97 ~tenants = Cluster.Overload.Legit_surge)

let test_respond_paths () =
  (match
     Cluster.Overload.respond
       (Cluster.Overload.Cc_suspected { tenant = 3; cpu_share = 0.9 })
       ~current_vms:10 ~utilization:0.97 ~target:0.4 ~headroom_vms:5
   with
  | Cluster.Overload.Quarantine 3 -> ()
  | _ -> Alcotest.fail "attack should quarantine");
  match
    Cluster.Overload.respond Cluster.Overload.Legit_surge ~current_vms:10
      ~utilization:0.97 ~target:0.4 ~headroom_vms:50
  with
  | Cluster.Overload.Scale _ -> ()
  | _ -> Alcotest.fail "surge should scale"

let test_monitor_quarantines_attacker () =
  let device, sim = make_device () in
  let verdicts = ref 0 in
  let monitor =
    Cluster.Overload.watch ~device ~check_every:(ms 500)
      ~on_verdict:(fun _ -> incr verdicts)
      ()
  in
  let attack =
    Workload.Attack.launch ~device ~tenant:0
      ~kind:
        (Workload.Attack.Cc { cps = 300.0; request_cost = ms 10; per_conn = 3 })
      ~rng:(Engine.Rng.create 3)
  in
  Engine.Sim.run_until sim ~limit:(sec 3);
  Workload.Attack.stop attack;
  Cluster.Overload.unwatch monitor;
  check Alcotest.bool "verdicts fired" true (!verdicts > 0);
  check Alcotest.bool "attacker sandboxed" true
    (Lb.Device.is_quarantined device ~tenant:0)

(* ------------------------------------------------------------------ *)
(* The section-7 incident: a poison request crashes its worker          *)

(* The crash predicate parses the request's (modelled) head: an
   RFC-unsupported WebSocket upgrade inside an HTTP/2 stream. *)
let upgrade_head =
  "GET /chat HTTP/1.1\r\nConnection: Upgrade\r\nUpgrade: websocket\r\n\r\n"

let poison_size = String.length upgrade_head

let incident_config =
  {
    Lb.Worker.default_config with
    crash_on =
      (fun req ->
        req.Lb.Request.size = poison_size
        &&
        match Lb.Http.parse_request upgrade_head with
        | Ok (parsed, _) -> List.assoc_opt "upgrade" parsed.Lb.Http.headers = Some "websocket"
        | Error _ -> false);
  }

let incident_blast_radius mode =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create 41 in
  let tenant_arr = Netsim.Tenant.population ~n:2 ~base_dport:20000 in
  let device =
    Lb.Device.create ~sim ~rng ~mode ~workers:4 ~tenants:tenant_arr
      ~worker_config:incident_config ()
  in
  Lb.Device.start device;
  (* a population of idle long-lived connections *)
  let conns = ref [] in
  for i = 0 to 199 do
    ignore
      (Engine.Sim.schedule_after sim ~delay:(ms (5 * i)) (fun () ->
           Lb.Device.connect device ~tenant:0
             ~events:
               {
                 Lb.Device.null_conn_events with
                 established = (fun c -> conns := c :: !conns);
               }))
  done;
  Engine.Sim.run_until sim ~limit:(sec 2);
  check Alcotest.int "population up" 200 (List.length !conns);
  (* one client sends the poison upgrade on its own connection *)
  Lb.Device.connect device ~tenant:0
    ~events:
      {
        Lb.Device.null_conn_events with
        established =
          (fun conn ->
            ignore
              (Lb.Device.send device conn
                 (Lb.Request.make ~id:(Lb.Device.fresh_id device)
                    ~op:Lb.Request.Websocket_frame ~size:poison_size
                    ~cost:(ms 1) ~tenant_id:conn.Lb.Conn.tenant_id)));
      };
  Engine.Sim.run_until sim ~limit:(sec 3);
  (* exactly one worker is dead; its connections are the blast radius *)
  let victims =
    Array.to_list (Lb.Device.workers device)
    |> List.filter Lb.Worker.is_crashed
  in
  check Alcotest.int "one core dump" 1 (List.length victims);
  let lost =
    List.length
      (List.filter
         (fun c ->
           c.Lb.Conn.worker_id = Lb.Worker.id (List.hd victims)
           && Lb.Conn.is_open c)
         !conns)
  in
  float_of_int lost /. 200.0

let test_incident_blast_radius () =
  let exclusive = incident_blast_radius Lb.Device.Exclusive in
  let hermes = incident_blast_radius (Lb.Device.Hermes Hermes.Config.default) in
  (* the paper's incident: >70% of connections had to re-establish
     under exclusive; balanced dispatch bounds it near 1/workers *)
  check Alcotest.bool "exclusive takes most of the device" true (exclusive > 0.7);
  check Alcotest.bool "hermes bounds the radius" true (hermes < 0.45);
  check Alcotest.bool "order of magnitude apart" true (exclusive > 2.0 *. hermes)

(* ------------------------------------------------------------------ *)
(* Rolling release                                                      *)

let test_release_cycles_all_workers () =
  let device, sim = make_device ~workers:4 () in
  let outcome = ref None in
  let release =
    Lb.Release.start ~device ~grace:(ms 200) ~poll:(ms 20)
      ~on_done:(fun o -> outcome := Some o)
      ()
  in
  Engine.Sim.run_until sim ~limit:(sec 5);
  ignore release;
  check Alcotest.bool "finished" true (Option.is_some !outcome);
  match !outcome with
  | Some o ->
    check Alcotest.int "all released" 4 o.Lb.Release.workers_released;
    (* nothing was connected: nothing to drain or reset *)
    check Alcotest.int "no forced resets" 0 o.Lb.Release.reset_at_deadline
  | None -> Alcotest.fail "no outcome"

let test_release_drains_then_resets_stragglers () =
  let device, sim = make_device ~workers:2 () in
  (* park an idle connection on each worker: it can never drain *)
  for w = 0 to 1 do
    ignore (Lb.Worker.adopt_conn (Lb.Device.worker device w) ~tenant_id:0)
  done;
  let outcome = ref None in
  ignore
    (Lb.Release.start ~device ~grace:(ms 300) ~poll:(ms 20)
       ~on_done:(fun o -> outcome := Some o)
       ());
  Engine.Sim.run_until sim ~limit:(sec 3);
  match !outcome with
  | Some o ->
    check Alcotest.int "stragglers reset" 2 o.Lb.Release.reset_at_deadline;
    check Alcotest.int "none drained" 0 o.Lb.Release.drained_gracefully
  | None -> Alcotest.fail "no outcome"

let test_release_serves_during () =
  (* connections made during the release land on in-rotation workers *)
  let device, sim = make_device ~workers:4 () in
  ignore (Lb.Release.start ~device ~grace:(ms 300) ~on_done:(fun _ -> ()) ());
  let ok = ref 0 in
  for i = 1 to 20 do
    ignore
      (Engine.Sim.schedule_after sim ~delay:(ms (40 * i)) (fun () ->
           Lb.Device.connect device ~tenant:0
             ~events:
               {
                 Lb.Device.null_conn_events with
                 established = (fun _ -> incr ok);
               }))
  done;
  Engine.Sim.run_until sim ~limit:(sec 4);
  check Alcotest.int "all served" 20 !ok

let test_release_rejects_shared_modes () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create 4 in
  let tenants = Netsim.Tenant.population ~n:1 ~base_dport:20000 in
  let device =
    Lb.Device.create ~sim ~rng ~mode:Lb.Device.Exclusive ~workers:2 ~tenants ()
  in
  Alcotest.check_raises "shared mode"
    (Invalid_argument "Release.start: rolling release needs dedicated sockets")
    (fun () -> ignore (Lb.Release.start ~device ~on_done:(fun _ -> ()) ()))

let test_establishment_hist () =
  let device, sim = make_device () in
  Lb.Device.connect device ~tenant:0 ~events:Lb.Device.null_conn_events;
  Engine.Sim.run_until sim ~limit:(ms 50);
  let h = Lb.Device.establishment_hist device in
  check Alcotest.int "one establishment" 1 (Stats.Histogram.count h);
  check Alcotest.bool "fast accept" true (Stats.Histogram.mean h < 1e6)

let () =
  Alcotest.run "resilience"
    [
      ( "attack",
        [
          Alcotest.test_case "syn flood generates" `Quick test_syn_flood_generates;
          Alcotest.test_case "cc burns cpu" `Quick test_cc_burns_cpu;
        ] );
      ( "tenant",
        [
          Alcotest.test_case "attribution" `Quick test_tenant_report_attribution;
          Alcotest.test_case "quarantine" `Quick test_quarantine_blocks_and_resets;
          Alcotest.test_case "quarantine drains queued SYNs (exclusive)" `Quick
            (test_quarantine_drains_queued_syns Lb.Device.Exclusive);
          Alcotest.test_case "quarantine drains queued SYNs (reuseport)" `Quick
            (test_quarantine_drains_queued_syns Lb.Device.Reuseport);
        ] );
      ( "overload",
        [
          Alcotest.test_case "not overloaded" `Quick test_classify_not_overloaded;
          Alcotest.test_case "cc" `Quick test_classify_cc;
          Alcotest.test_case "syn flood" `Quick test_classify_syn_flood;
          Alcotest.test_case "legit surge" `Quick test_classify_legit_surge;
          Alcotest.test_case "responses" `Quick test_respond_paths;
          Alcotest.test_case "monitor quarantines" `Quick test_monitor_quarantines_attacker;
        ] );
      ( "incident",
        [
          Alcotest.test_case "poison upgrade blast radius" `Quick
            test_incident_blast_radius;
        ] );
      ( "release",
        [
          Alcotest.test_case "cycles all workers" `Quick test_release_cycles_all_workers;
          Alcotest.test_case "drains then resets" `Quick
            test_release_drains_then_resets_stragglers;
          Alcotest.test_case "serves during" `Quick test_release_serves_during;
          Alcotest.test_case "rejects shared modes" `Quick test_release_rejects_shared_modes;
          Alcotest.test_case "establishment hist" `Quick test_establishment_hist;
        ] );
    ]
