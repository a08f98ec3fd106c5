(* Tests for the multi-device cluster. *)

let check = Alcotest.check
let ms = Engine.Sim_time.ms
let sec = Engine.Sim_time.sec

let null_events =
  {
    Cluster.Lb_cluster.established = (fun _ -> ());
    request_done = (fun _ _ -> ());
    closed = (fun _ -> ());
    reset = (fun _ -> ());
    dispatch_failed = (fun () -> ());
  }

(* Member by slot. *)
let device cluster slot = List.assoc slot (Cluster.Lb_cluster.devices cluster)

let make_cluster ?(devices = 3) ?(mode = Lb.Device.Reuseport) () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create 77 in
  let tenants = Netsim.Tenant.population ~n:2 ~base_dport:20000 in
  let cluster =
    Cluster.Lb_cluster.create ~sim ~rng ~tenants ~devices ~mode ~workers:2 ()
  in
  (cluster, sim)

let open_one cluster ~on_established =
  Cluster.Lb_cluster.connect cluster ~tenant:0
    ~events:
      { null_events with established = on_established }

(* ------------------------------------------------------------------ *)
(* Lb_cluster                                                           *)

let test_cluster_spreads () =
  let cluster, sim = make_cluster () in
  check Alcotest.int "size" 3 (Cluster.Lb_cluster.size cluster);
  check Alcotest.int "rotation" 3 (Cluster.Lb_cluster.in_rotation cluster);
  let members = ref [] in
  for _ = 1 to 60 do
    open_one cluster ~on_established:(fun h ->
        members := h.Cluster.Lb_cluster.member :: !members)
  done;
  Engine.Sim.run_until sim ~limit:(ms 100);
  check Alcotest.int "all established" 60 (List.length !members);
  (* every member device served some *)
  List.iter
    (fun (slot, dev) ->
      ignore slot;
      let served =
        List.length (List.filter (fun d -> d == dev) !members)
      in
      check Alcotest.bool "member used" true (served > 5))
    (Cluster.Lb_cluster.devices cluster)

let test_cluster_send_close_roundtrip () =
  let cluster, sim = make_cluster () in
  let completed = ref 0 in
  Cluster.Lb_cluster.connect cluster ~tenant:0
    ~events:
      {
        null_events with
        established =
          (fun h ->
            ignore
              (Cluster.Lb_cluster.send h
                 (Lb.Request.make ~id:(Cluster.Lb_cluster.fresh_id cluster)
                    ~op:Lb.Request.Plain_proxy ~size:10 ~cost:(ms 1)
                    ~tenant_id:0)));
        request_done =
          (fun h _ ->
            incr completed;
            Cluster.Lb_cluster.close h);
      };
  Engine.Sim.run_until sim ~limit:(ms 100);
  check Alcotest.int "request served" 1 !completed;
  check Alcotest.int "completed aggregated" 1 (Cluster.Lb_cluster.completed cluster)

let test_cluster_drain_excludes () =
  let cluster, sim = make_cluster () in
  Cluster.Lb_cluster.drain_device cluster 0;
  check Alcotest.int "rotation shrank" 2 (Cluster.Lb_cluster.in_rotation cluster);
  let members = ref [] in
  for _ = 1 to 40 do
    open_one cluster ~on_established:(fun h ->
        members := h.Cluster.Lb_cluster.member :: !members)
  done;
  Engine.Sim.run_until sim ~limit:(ms 100);
  let drained = device cluster 0 in
  check Alcotest.bool "drained device gets nothing" true
    (not (List.exists (fun d -> d == drained) !members))

let test_cluster_remove_when_drained () =
  let cluster, sim = make_cluster () in
  (* put one connection on device 1 directly, drain it, then close *)
  let handle = ref None in
  let dev1 = device cluster 1 in
  Lb.Device.connect dev1 ~tenant:0
    ~events:
      {
        Lb.Device.null_conn_events with
        established = (fun conn -> handle := Some conn);
      };
  Engine.Sim.run_until sim ~limit:(ms 50);
  Cluster.Lb_cluster.drain_device cluster 1;
  let removed = ref false in
  Cluster.Lb_cluster.remove_when_drained cluster 1
    ~on_removed:(fun () -> removed := true)
    ();
  Engine.Sim.run_until sim ~limit:(ms 500);
  check Alcotest.bool "still waiting on the live conn" false !removed;
  (match !handle with
  | Some conn -> Lb.Device.close_conn dev1 conn
  | None -> Alcotest.fail "no conn");
  Engine.Sim.run_until sim ~limit:(sec 1);
  check Alcotest.bool "removed once empty" true !removed;
  check Alcotest.int "size shrank" 2 (Cluster.Lb_cluster.size cluster)

let test_cluster_rolling_replace () =
  let cluster, sim = make_cluster ~mode:Lb.Device.Exclusive () in
  let original_slots =
    List.map fst (Cluster.Lb_cluster.devices cluster)
  in
  let finished = ref false in
  Cluster.Lb_cluster.rolling_replace cluster
    ~new_mode:(Lb.Device.Hermes Hermes.Config.default) ~max_drain:(ms 500)
    ~on_done:(fun () -> finished := true)
    ();
  Engine.Sim.run_until sim ~limit:(sec 5);
  check Alcotest.bool "rollout done" true !finished;
  check Alcotest.int "same fleet size" 3 (Cluster.Lb_cluster.size cluster);
  (* all original slots are gone; replacements are hermes devices *)
  List.iter
    (fun (slot, dev) ->
      check Alcotest.bool "new slot" true (not (List.mem slot original_slots));
      check Alcotest.bool "hermes mode" true
        (Lb.Device.hermes_runtime dev <> None))
    (Cluster.Lb_cluster.devices cluster)

(* A member that stalled drains at once: the stall's carrier is no
   connection, so a rollout on an idle fleet ends well inside
   max_drain. *)
let test_cluster_rolling_replace_after_hang () =
  let cluster, sim =
    make_cluster ~devices:1 ~mode:(Lb.Device.Hermes Hermes.Config.default) ()
  in
  let plan =
    [ { Faults.Plan.at = ms 1; action = Faults.Plan.Hang { worker = 0; duration = ms 2 } } ]
  in
  Cluster.Lb_cluster.run_on cluster ~slot:0 (fun dev -> Faults.Inject.arm ~device:dev ~plan);
  let finished = ref None in
  ignore
    (Engine.Sim.schedule sim ~at:(ms 20) (fun () ->
         Cluster.Lb_cluster.rolling_replace cluster ~new_mode:Lb.Device.Reuseport
           ~poll:(ms 1)
           ~on_done:(fun () -> finished := Some (Engine.Sim.now sim))
           ()));
  Engine.Sim.run_until sim ~limit:(sec 1);
  match !finished with
  | Some at -> check Alcotest.bool "done within 100 ms" true (at < ms 100)
  | None -> Alcotest.fail "rollout still waiting on the member that hung"

let test_cluster_empty_rotation_fails () =
  let cluster, _sim = make_cluster ~devices:1 () in
  Cluster.Lb_cluster.drain_device cluster 0;
  let failed = ref false in
  Cluster.Lb_cluster.connect cluster ~tenant:0
    ~events:
      {
        null_events with
        dispatch_failed = (fun () -> failed := true);
      };
  check Alcotest.bool "nothing in rotation" true !failed

let test_cluster_drain_last_in_rotation () =
  let cluster, sim = make_cluster ~devices:2 () in
  (* park a connection on the fleet so draining doesn't empty it *)
  let parked = ref None in
  open_one cluster ~on_established:(fun h -> parked := Some h);
  Engine.Sim.run_until sim ~limit:(ms 50);
  check Alcotest.bool "conn parked" true (!parked <> None);
  Cluster.Lb_cluster.drain_device cluster 0;
  Cluster.Lb_cluster.drain_device cluster 1;
  check Alcotest.int "nothing in rotation" 0
    (Cluster.Lb_cluster.in_rotation cluster);
  (* the L4 tier knows synchronously that the rotation is empty *)
  let failed = ref false in
  Cluster.Lb_cluster.connect cluster ~tenant:0
    ~events:
      {
        null_events with
        dispatch_failed = (fun () -> failed := true);
      };
  check Alcotest.bool "connect refused" true !failed;
  (* once the parked connection closes, both drained members empty out
     and can be removed *)
  (match !parked with Some h -> Cluster.Lb_cluster.close h | None -> ());
  let removed = ref 0 in
  Cluster.Lb_cluster.remove_when_drained cluster 0
    ~on_removed:(fun () -> incr removed)
    ();
  Cluster.Lb_cluster.remove_when_drained cluster 1
    ~on_removed:(fun () -> incr removed)
    ();
  Engine.Sim.run_until sim ~limit:(sec 2);
  check Alcotest.int "both gone eventually" 2 !removed;
  check Alcotest.int "fleet empty" 0 (Cluster.Lb_cluster.size cluster)

let test_cluster_remove_twice_raises () =
  let cluster, sim = make_cluster ~devices:2 () in
  Engine.Sim.run_until sim ~limit:(ms 10);
  Cluster.Lb_cluster.remove cluster 0;
  check Alcotest.int "one left" 1 (Cluster.Lb_cluster.size cluster);
  (match Cluster.Lb_cluster.remove cluster 0 with
  | () -> Alcotest.fail "second remove must raise"
  | exception Invalid_argument _ -> ());
  (* dependent accessors agree the slot is gone *)
  check Alcotest.bool "slot gone from the members" false
    (List.mem_assoc 0 (Cluster.Lb_cluster.devices cluster));
  match Cluster.Lb_cluster.drain_device cluster 0 with
  | () -> Alcotest.fail "drain on removed slot must raise"
  | exception Invalid_argument _ -> ()

let test_cluster_crash_mid_drain () =
  let cluster, sim = make_cluster ~devices:2 () in
  let resets = ref 0 in
  let established = ref 0 in
  for _ = 1 to 12 do
    Cluster.Lb_cluster.connect cluster ~tenant:0
      ~events:
        {
          null_events with
          established = (fun _ -> incr established);
          reset = (fun _ -> incr resets);
        }
  done;
  Engine.Sim.run_until sim ~limit:(ms 50);
  check Alcotest.int "population up" 12 !established;
  check Alcotest.bool "victim device carries conns" true
    (Cluster.Lb_cluster.live_conns cluster 0 > 0);
  Cluster.Lb_cluster.drain_device cluster 0;
  let removed = ref false in
  Cluster.Lb_cluster.remove_when_drained cluster 0
    ~on_removed:(fun () -> removed := true)
    ();
  Engine.Sim.run_until sim ~limit:(ms 200);
  check Alcotest.bool "still draining on live conns" false !removed;
  (* crash both workers mid-drain through a lib/faults plan, delivered
     to the member's own simulator; the restarting processes reset their
     surviving connections (draining keeps new ones away), the drain
     completes, the member leaves *)
  let plan : Faults.Plan.t =
    [
      { Faults.Plan.at = ms 300; action = Faults.Plan.Crash { worker = 0 } };
      { Faults.Plan.at = ms 301; action = Faults.Plan.Crash { worker = 1 } };
      { Faults.Plan.at = ms 400; action = Faults.Plan.Recover { worker = 0 } };
      { Faults.Plan.at = ms 401; action = Faults.Plan.Recover { worker = 1 } };
    ]
  in
  Cluster.Lb_cluster.run_on cluster ~slot:0 (fun dev ->
      Faults.Inject.arm ~device:dev ~plan);
  Engine.Sim.run_until sim ~limit:(sec 1);
  check Alcotest.bool "connections reset by the crash" true (!resets > 0);
  check Alcotest.bool "drain completed via crash" true !removed;
  check Alcotest.int "fleet shrank" 1 (Cluster.Lb_cluster.size cluster);
  (* the survivor still serves *)
  let ok = ref false in
  open_one cluster ~on_established:(fun _ -> ok := true);
  Engine.Sim.run_until sim ~limit:(Engine.Sim_time.add (sec 1) (ms 100));
  check Alcotest.bool "survivor serves" true !ok

(* A rolling replacement that starts while a connection is still one
   hop from the drained member, or waits in its accept queue, must not
   lose it: every issued connect ends in exactly one of [established]
   or [dispatch_failed], and every established connection in [closed]
   or [reset].  One connection at 1 ms with one 200 us request; the
   rollout starts anywhere from 1.000 to 1.200 ms. *)
let test_cluster_drain_keeps_in_flight () =
  for k = 0 to 20 do
    let start = Engine.Sim_time.add (ms 1) (Engine.Sim_time.us (10 * k)) in
    let cluster, sim = make_cluster ~devices:1 () in
    let outcomes = ref [] in
    let note s = outcomes := s :: !outcomes in
    ignore
      (Engine.Sim.schedule sim ~at:(ms 1) (fun () ->
           Cluster.Lb_cluster.connect cluster ~tenant:0
             ~events:
               {
                 established =
                   (fun h ->
                     note "established";
                     Cluster.Lb_cluster.send h
                       (Lb.Request.make ~id:(Cluster.Lb_cluster.fresh_id cluster)
                          ~op:Lb.Request.Plain_proxy ~size:10
                          ~cost:(Engine.Sim_time.us 200) ~tenant_id:0));
                 request_done = (fun h _ -> Cluster.Lb_cluster.close h);
                 closed = (fun _ -> note "closed");
                 reset = (fun _ -> note "reset");
                 dispatch_failed = (fun () -> note "dispatch_failed");
               }));
    let finished = ref false in
    ignore
      (Engine.Sim.schedule sim ~at:start (fun () ->
           Cluster.Lb_cluster.rolling_replace cluster ~new_mode:Lb.Device.Reuseport
             ~poll:(ms 1)
             ~on_done:(fun () -> finished := true)
             ()));
    Engine.Sim.run_until sim ~limit:(ms 50);
    let at = Engine.Sim_time.to_string start in
    check Alcotest.(list string) ("one outcome each, rollout at " ^ at)
      [ "established"; "closed" ] (List.rev !outcomes);
    check Alcotest.bool ("rollout done, at " ^ at) true !finished;
    check Alcotest.int ("one member, at " ^ at) 1 (Cluster.Lb_cluster.size cluster)
  done

let () =
  Alcotest.run "fleet"
    [
      ( "lb_cluster",
        [
          Alcotest.test_case "spreads" `Quick test_cluster_spreads;
          Alcotest.test_case "send/close roundtrip" `Quick test_cluster_send_close_roundtrip;
          Alcotest.test_case "drain excludes" `Quick test_cluster_drain_excludes;
          Alcotest.test_case "remove when drained" `Quick test_cluster_remove_when_drained;
          Alcotest.test_case "rolling replace" `Quick test_cluster_rolling_replace;
          Alcotest.test_case "rolling replace after a hang" `Quick
            test_cluster_rolling_replace_after_hang;
          Alcotest.test_case "empty rotation" `Quick test_cluster_empty_rotation_fails;
          Alcotest.test_case "drain last in rotation" `Quick
            test_cluster_drain_last_in_rotation;
          Alcotest.test_case "remove twice raises" `Quick
            test_cluster_remove_twice_raises;
          Alcotest.test_case "crash mid-drain" `Quick test_cluster_crash_mid_drain;
          Alcotest.test_case "drain keeps in-flight connects" `Quick
            test_cluster_drain_keeps_in_flight;
        ] );
    ]
