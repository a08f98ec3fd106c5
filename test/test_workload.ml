(* Tests for the workload library: profiles, the Table 3 cases, region
   models, the open-loop driver, surge generation, and trace
   record/replay. *)

let check = Alcotest.check
let ms = Engine.Sim_time.ms

(* ------------------------------------------------------------------ *)
(* Profile                                                              *)

let test_profile_scale_rate () =
  let p = Workload.Cases.profile Workload.Cases.Case1 ~workers:8 in
  let p2 = Workload.Profile.scale_rate p 2.0 in
  check (Alcotest.float 1e-6) "doubled" (p.Workload.Profile.cps *. 2.0)
    p2.Workload.Profile.cps;
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Profile.scale_rate: factor must be positive") (fun () ->
      ignore (Workload.Profile.scale_rate p 0.0))

(* Empirical means of a profile's distributions, and the CPU-seconds
   per second it demands of the whole device:
   cps * E[requests_per_conn] * E[processing_time]. *)
let mean_processing_time (p : Workload.Profile.t) rng =
  Engine.Dist.mean_of p.processing_time rng 2000

let offered_load (p : Workload.Profile.t) rng =
  let reqs = Engine.Dist.mean_of p.requests_per_conn rng 2000 in
  p.cps *. reqs *. mean_processing_time p rng

let test_profile_offered_load () =
  (* light profiles target roughly 45-55% of the device *)
  List.iter
    (fun case ->
      let p = Workload.Cases.profile case ~workers:8 in
      let load = offered_load p (Engine.Rng.create 1) in
      check Alcotest.bool
        (Workload.Cases.name case ^ " light load sane")
        true
        (load > 2.0 && load < 6.5))
    Workload.Cases.all

let test_profile_tenant_skew () =
  let p = Workload.Cases.profile Workload.Cases.Case1 ~workers:8 in
  let rng = Engine.Rng.create 2 in
  let pick = Workload.Profile.tenant_picker p ~tenants:8 rng in
  let counts = Array.make 8 0 in
  for _ = 1 to 10_000 do
    let t = pick () in
    counts.(t) <- counts.(t) + 1
  done;
  check Alcotest.bool "tenant 0 hottest" true
    (Array.for_all (fun c -> counts.(0) >= c) counts)

let test_profile_uniform_when_no_skew () =
  let p =
    { (Workload.Cases.profile Workload.Cases.Case1 ~workers:8) with
      Workload.Profile.tenant_skew = 0.0 }
  in
  let rng = Engine.Rng.create 3 in
  let pick = Workload.Profile.tenant_picker p ~tenants:4 rng in
  let counts = Array.make 4 0 in
  for _ = 1 to 20_000 do
    let t = pick () in
    counts.(t) <- counts.(t) + 1
  done;
  Array.iter
    (fun c -> check Alcotest.bool "roughly uniform" true (abs (c - 5_000) < 500))
    counts

let test_profile_pick_op () =
  let p = Workload.Cases.profile Workload.Cases.Case4 ~workers:8 in
  let pick = Workload.Profile.op_picker p (Engine.Rng.create 4) in
  for _ = 1 to 100 do
    let op = pick () in
    check Alcotest.bool "op from mix" true
      (List.exists (fun (_, o) -> o = op) p.Workload.Profile.op_mix)
  done

(* ------------------------------------------------------------------ *)
(* Cases                                                                *)

(* Table 3's 2x2 design: cases 1 and 2 arrive fast, 3 and 4 slowly;
   cases 2 and 4 cost more per request than 1 and 3. *)
let test_cases_classes () =
  let cps c = (Workload.Cases.profile c ~workers:8).Workload.Profile.cps in
  let proc c =
    mean_processing_time (Workload.Cases.profile c ~workers:8) (Engine.Rng.create 3)
  in
  let open Workload.Cases in
  List.iter
    (fun (fast, slow) -> check Alcotest.bool "high cps > low cps" true (cps fast > cps slow))
    [ (Case1, Case3); (Case2, Case4) ];
  List.iter
    (fun (heavy, light) ->
      check Alcotest.bool "high processing > low processing" true (proc heavy > proc light))
    [ (Case2, Case1); (Case4, Case3) ]

let test_cases_parameters_consistent () =
  (* the CPS axis must actually separate the high/low classes *)
  let cps c = (Workload.Cases.profile c ~workers:8).Workload.Profile.cps in
  check Alcotest.bool "case1 > case3" true
    (cps Workload.Cases.Case1 > (10.0 *. cps Workload.Cases.Case3));
  check Alcotest.bool "case2 > case4" true
    (cps Workload.Cases.Case2 > (10.0 *. cps Workload.Cases.Case4));
  (* and the processing axis separates too *)
  let proc c =
    mean_processing_time (Workload.Cases.profile c ~workers:8) (Engine.Rng.create 5)
  in
  check Alcotest.bool "case2 proc >> case1" true
    (proc Workload.Cases.Case2 > (3.0 *. proc Workload.Cases.Case1));
  check Alcotest.bool "case4 proc >> case3" true
    (proc Workload.Cases.Case4 > (10.0 *. proc Workload.Cases.Case3))

let test_cases_load_factors () =
  check (Alcotest.float 0.0) "light" 1.0 (Workload.Cases.load_factor Workload.Cases.Light);
  check (Alcotest.float 0.0) "heavy" 3.0 (Workload.Cases.load_factor Workload.Cases.Heavy);
  check Alcotest.int "three loads" 3 (List.length Workload.Cases.loads);
  check Alcotest.int "four cases" 4 (List.length Workload.Cases.all)

(* ------------------------------------------------------------------ *)
(* Regions                                                              *)

let test_regions_weights_sum () =
  Array.iter
    (fun (r : Workload.Regions.t) ->
      let total = Array.fold_left ( +. ) 0.0 r.case_weights in
      check Alcotest.bool (r.name ^ " weights sum to ~1") true
        (Float.abs (total -. 1.0) < 0.02))
    Workload.Regions.all

let test_regions_sample_distribution () =
  let rng = Engine.Rng.create 6 in
  let counts = Array.make 4 0 in
  let n = 20_000 in
  for _ = 1 to n do
    match Workload.Regions.sample_case Workload.Regions.all.(1) rng with
    | Workload.Cases.Case1 -> counts.(0) <- counts.(0) + 1
    | Case2 -> counts.(1) <- counts.(1) + 1
    | Case3 -> counts.(2) <- counts.(2) + 1
    | Case4 -> counts.(3) <- counts.(3) + 1
  done;
  (* Region2 is 82% case4 *)
  check Alcotest.bool "case4 dominates region2" true
    (float_of_int counts.(3) /. float_of_int n > 0.78)

let test_regions_table1_quantiles () =
  (* Region1 P50s must come out near the fitted targets *)
  let rng = Engine.Rng.create 7 in
  let xs =
    Array.init 50_000 (fun _ ->
        Engine.Dist.sample Workload.Regions.all.(0).request_size rng)
  in
  let p50 = Stats.Summary.percentile xs 50.0 in
  check Alcotest.bool "size p50 ~ 243" true (Float.abs (p50 -. 243.0) < 20.0)

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)

let test_driver_generates_and_completes () =
  let device, rng =
    Experiments.Common.make_device ~workers:4 ~tenants:4 ~mode:Lb.Device.Reuseport ()
  in
  let profile =
    Workload.Profile.scale_rate
      (Workload.Cases.profile Workload.Cases.Case1 ~workers:4)
      0.2
  in
  let report =
    Workload.Driver.run ~device ~profile ~rng ~warmup:(ms 200) ~measure:(ms 800) ()
  in
  check Alcotest.bool "completed requests" true (report.Workload.Driver.completed > 50);
  check Alcotest.bool "throughput positive" true (report.throughput_krps > 0.0);
  check Alcotest.bool "latency sane" true
    (report.avg_ms > 0.0 && report.avg_ms < 100.0);
  check Alcotest.bool "p50 <= p99" true (report.p50_ms <= report.p99_ms)

let test_driver_stop () =
  let device, rng =
    Experiments.Common.make_device ~workers:2 ~tenants:2 ~mode:Lb.Device.Reuseport ()
  in
  let sim = Lb.Device.sim device in
  Lb.Device.start device;
  let profile =
    Workload.Profile.scale_rate
      (Workload.Cases.profile Workload.Cases.Case1 ~workers:2)
      0.2
  in
  let driver = Workload.Driver.start ~device ~profile ~rng () in
  Engine.Sim.run_until sim ~limit:(ms 200);
  Workload.Driver.stop driver;
  let opened = Workload.Driver.conns_opened driver in
  Engine.Sim.run_until sim ~limit:(ms 600);
  check Alcotest.int "no arrivals after stop" opened
    (Workload.Driver.conns_opened driver);
  check Alcotest.bool "sent counted" true (Workload.Driver.requests_sent driver > 0)

(* ------------------------------------------------------------------ *)
(* Surge                                                                *)

let test_surge_establish_and_burst () =
  let device, rng =
    Experiments.Common.make_device ~workers:4 ~tenants:2 ~mode:Lb.Device.Reuseport ()
  in
  let sim = Lb.Device.sim device in
  Lb.Device.start device;
  let surge = Workload.Surge.establish ~device ~tenant:0 ~count:50 ~over:(ms 100) in
  Engine.Sim.run_until sim ~limit:(ms 300);
  check Alcotest.int "all established" 50 (Workload.Surge.established_count surge);
  let before = Lb.Device.completed device in
  Workload.Surge.burst surge ~rng ~requests_per_conn:2
    ~cost:(Engine.Sim_time.us 100) ~size:10 ~jitter:(ms 5);
  Engine.Sim.run_until sim ~limit:(ms 600);
  check Alcotest.int "all burst requests served" (before + 100)
    (Lb.Device.completed device);
  Workload.Surge.teardown surge;
  Engine.Sim.run_until sim ~limit:(Engine.Sim_time.sec 1);
  check Alcotest.int "all closed" 0
    (Array.fold_left ( + ) 0 (Lb.Device.conns_per_worker device))

(* ------------------------------------------------------------------ *)
(* Replay                                                               *)

let small_profile =
  Workload.Profile.scale_rate (Workload.Cases.profile Workload.Cases.Case1 ~workers:2) 0.05

let test_replay_record_deterministic () =
  let record seed =
    Workload.Replay.record ~profile:small_profile ~tenants:2
      ~duration:(Engine.Sim_time.sec 1) ~rng:(Engine.Rng.create seed)
  in
  let a = Workload.Replay.ops (record 42) and b = Workload.Replay.ops (record 42) in
  check Alcotest.bool "same script" true (a = b);
  check Alcotest.bool "non-empty" true (a <> [])

let test_replay_ops_sorted () =
  let trace =
    Workload.Replay.record ~profile:small_profile ~tenants:2
      ~duration:(Engine.Sim_time.sec 1) ~rng:(Engine.Rng.create 1)
  in
  let at = function
    | Workload.Replay.Connect { at; _ }
    | Workload.Replay.Send { at; _ }
    | Workload.Replay.Close { at; _ } -> at
  in
  let rec walk = function
    | a :: (b :: _ as rest) ->
      check Alcotest.bool "sorted" true (at a <= at b);
      walk rest
    | _ -> ()
  in
  walk (Workload.Replay.ops trace)

let test_replay_executes () =
  let trace =
    Workload.Replay.record ~profile:small_profile ~tenants:2
      ~duration:(Engine.Sim_time.sec 2) ~rng:(Engine.Rng.create 2)
  in
  let run rate =
    let device, _ =
      Experiments.Common.make_device ~workers:2 ~tenants:2 ~mode:Lb.Device.Reuseport ()
    in
    let sim = Lb.Device.sim device in
    Lb.Device.start device;
    Workload.Replay.replay trace ~device ~rate;
    Engine.Sim.run_until sim ~limit:(Engine.Sim_time.sec 3);
    Lb.Device.completed device
  in
  let at1 = run 1.0 in
  let at2 = run 2.0 in
  check Alcotest.bool "requests completed" true (at1 > 0);
  (* rate scaling delivers the same requests (compressed in time) *)
  check Alcotest.int "same total at higher rate" at1 at2

let () =
  Alcotest.run "workload"
    [
      ( "profile",
        [
          Alcotest.test_case "scale rate" `Quick test_profile_scale_rate;
          Alcotest.test_case "offered load" `Quick test_profile_offered_load;
          Alcotest.test_case "tenant skew" `Quick test_profile_tenant_skew;
          Alcotest.test_case "uniform tenants" `Quick test_profile_uniform_when_no_skew;
          Alcotest.test_case "pick op" `Quick test_profile_pick_op;
        ] );
      ( "cases",
        [
          Alcotest.test_case "classes" `Quick test_cases_classes;
          Alcotest.test_case "parameters consistent" `Quick test_cases_parameters_consistent;
          Alcotest.test_case "load factors" `Quick test_cases_load_factors;
        ] );
      ( "regions",
        [
          Alcotest.test_case "weights sum" `Quick test_regions_weights_sum;
          Alcotest.test_case "sample distribution" `Quick test_regions_sample_distribution;
          Alcotest.test_case "table1 quantiles" `Quick test_regions_table1_quantiles;
        ] );
      ( "driver",
        [
          Alcotest.test_case "generates and completes" `Quick test_driver_generates_and_completes;
          Alcotest.test_case "stop" `Quick test_driver_stop;
        ] );
      ( "surge",
        [ Alcotest.test_case "establish and burst" `Quick test_surge_establish_and_burst ] );
      ( "replay",
        [
          Alcotest.test_case "record deterministic" `Quick test_replay_record_deterministic;
          Alcotest.test_case "ops sorted" `Quick test_replay_ops_sorted;
          Alcotest.test_case "executes" `Quick test_replay_executes;
        ] );
    ]
