(* Tests for the Hermes core: WST, metric hooks, the Algo 1 scheduler,
   the Algo 2 dispatch program, grouping, the runtime, and proactive
   degradation. *)

let schedule = Drive.schedule

let check = Alcotest.check
let ms = Engine.Sim_time.ms

(* The WST's columns, read the way the scheduler reads them. *)
let avail_ts wst w = let t, _, _ = Oracles.Scheduler_ref.read_all wst in t.(w)
let busy wst w = let _, e, _ = Oracles.Scheduler_ref.read_all wst in e.(w)
let conn wst w = let _, _, c = Oracles.Scheduler_ref.read_all wst in c.(w)

(* ------------------------------------------------------------------ *)
(* Wst                                                                  *)

let test_wst_basic () =
  let wst = Hermes.Wst.create ~workers:3 in
  check Alcotest.int "workers" 3 (Hermes.Wst.workers wst);
  Hermes.Wst.set_avail wst 1 ~now:(ms 5);
  Hermes.Wst.add_busy wst 1 4;
  Hermes.Wst.add_busy wst 1 (-1);
  Hermes.Wst.add_conn wst 2 2;
  check Alcotest.int "avail" (ms 5) (avail_ts wst 1);
  check Alcotest.int "busy" 3 (busy wst 1);
  check Alcotest.int "conn" 2 (conn wst 2);
  check Alcotest.int "other column untouched" 0 (busy wst 0)

let test_wst_snapshot () =
  let wst = Hermes.Wst.create ~workers:2 in
  Hermes.Wst.add_conn wst 0 5;
  Hermes.Wst.add_busy wst 1 7;
  let _, events, conns = Oracles.Scheduler_ref.read_all wst in
  check Alcotest.(array int) "conns" [| 5; 0 |] conns;
  check Alcotest.(array int) "events" [| 0; 7 |] events

let test_wst_invalid () =
  Alcotest.check_raises "zero workers"
    (Invalid_argument "Wst.create: workers must be in 1..64") (fun () ->
      ignore (Hermes.Wst.create ~workers:0));
  (* Regression: a 65-worker table used to be accepted and then
     silently truncated to 64 at dispatch time — the bitmap has no bit
     for worker 64, so it could never be selected. *)
  Alcotest.check_raises "more workers than bitmap bits"
    (Invalid_argument "Wst.create: workers must be in 1..64") (fun () ->
      ignore (Hermes.Wst.create ~workers:65));
  ignore (Hermes.Wst.create ~workers:64)

(* qcheck: any interleaving of deltas sums correctly. *)
let prop_wst_sums =
  QCheck.Test.make ~name:"wst sums deltas" ~count:100
    QCheck.(list (int_range (-5) 5))
    (fun deltas ->
      let wst = Hermes.Wst.create ~workers:1 in
      List.iter (Hermes.Wst.add_busy wst 0) deltas;
      busy wst 0 = List.fold_left ( + ) 0 deltas)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let test_metrics_hooks () =
  let wst = Hermes.Wst.create ~workers:2 in
  let h = Hermes.Metrics.create ~wst ~worker:1 in
  Hermes.Metrics.avail_update h ~now:(ms 3);
  Hermes.Metrics.busy_count h 5;
  Hermes.Metrics.busy_count h (-2);
  Hermes.Metrics.conn_count h 1;
  check Alcotest.int "avail" (ms 3) (avail_ts wst 1);
  check Alcotest.int "busy" 3 (busy wst 1);
  check Alcotest.int "conn" 1 (conn wst 1);
  check Alcotest.bool "cycles counted" true (Hermes.Metrics.cycles h > 0);
  Hermes.Metrics.reset_accounting h;
  check Alcotest.int "reset" 0 (Hermes.Metrics.cycles h)

let test_metrics_range () =
  let wst = Hermes.Wst.create ~workers:2 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Metrics.create: worker out of range") (fun () ->
      ignore (Hermes.Metrics.create ~wst ~worker:2))

(* ------------------------------------------------------------------ *)
(* Scheduler                                                            *)

let test_filter_time () =
  let times = [| ms 100; ms 50; 0 |] in
  let mask = [| true; true; true |] in
  Oracles.Scheduler_ref.filter_time ~threshold:(ms 60) ~now:(ms 105) ~times mask;
  (* ages: 5ms, 55ms, 105ms -> third is hung *)
  check Alcotest.(array bool) "hung excluded" [| true; true; false |] mask

let test_filter_count_average () =
  (* values 0,2,10: avg 4, theta 2 -> cutoff 6: worker 2 excluded *)
  let mask = [| true; true; true |] in
  Oracles.Scheduler_ref.filter_count ~theta_ratio:0.5 ~values:[| 0; 2; 10 |] mask;
  check Alcotest.(array bool) "above cutoff excluded" [| true; true; false |] mask

let test_filter_count_idle_floor () =
  (* all zeros: the theta floor keeps everyone in *)
  let mask = [| true; true |] in
  Oracles.Scheduler_ref.filter_count ~theta_ratio:0.5 ~values:[| 0; 0 |] mask;
  check Alcotest.(array bool) "all pass when idle" [| true; true |] mask

let test_filter_count_respects_mask () =
  (* dead workers are excluded from the average: live values 2,4 ->
     avg 3, cutoff 4.5; the dead 100 must not drag the average up *)
  let mask = [| true; false; true |] in
  Oracles.Scheduler_ref.filter_count ~theta_ratio:0.5 ~values:[| 2; 100; 4 |] mask;
  check Alcotest.(array bool) "dead ignored" [| true; false; true |] mask

let fresh_wst_with ~times ~events ~conns =
  let n = Array.length times in
  let wst = Hermes.Wst.create ~workers:n in
  Array.iteri (fun i t -> Hermes.Wst.set_avail wst i ~now:t) times;
  Array.iteri (fun i v -> Hermes.Wst.add_busy wst i v) events;
  Array.iteri (fun i v -> Hermes.Wst.add_conn wst i v) conns;
  wst

let test_schedule_cascade () =
  (* worker 0: healthy/low; worker 1: hung; worker 2: too many conns;
     worker 3: too many events *)
  let wst =
    fresh_wst_with
      ~times:[| ms 99; 0; ms 99; ms 99 |]
      ~events:[| 1; 0; 1; 50 |]
      ~conns:[| 2; 0; 90; 2 |]
  in
  let result =
    schedule ~config:Hermes.Config.default ~wst ~now:(ms 100)
  in
  check Alcotest.(list int) "only worker 0"
    [ 0 ]
    (Bitmap.to_list result.Hermes.Scheduler.bitmap);
  check Alcotest.int "passed" 1 result.Hermes.Scheduler.passed;
  check Alcotest.int "after time filter" 3 result.Hermes.Scheduler.after_time;
  check Alcotest.int "total" 4 result.Hermes.Scheduler.total;
  check Alcotest.bool "cycles" true (result.Hermes.Scheduler.cycles > 0)

let test_schedule_all_idle () =
  let wst =
    fresh_wst_with ~times:[| ms 99; ms 99 |] ~events:[| 0; 0 |] ~conns:[| 0; 0 |]
  in
  let result =
    schedule ~config:Hermes.Config.default ~wst ~now:(ms 100)
  in
  check Alcotest.int "all pass" 2 result.Hermes.Scheduler.passed

let test_schedule_filter_order_config () =
  (* with only the time filter configured, loaded workers still pass *)
  let wst =
    fresh_wst_with ~times:[| ms 99; ms 99 |] ~events:[| 0; 999 |] ~conns:[| 0; 999 |]
  in
  let config =
    { Hermes.Config.default with filter_order = [ Hermes.Config.By_time ] }
  in
  let result = schedule ~config ~wst ~now:(ms 100) in
  check Alcotest.int "both pass" 2 result.Hermes.Scheduler.passed

(* ------------------------------------------------------------------ *)
(* Dispatch program                                                     *)

let make_dispatch_env ~workers ~bitmap =
  let m_sel = Kernel.Ebpf_maps.Array_map.create ~name:"M_Sel" ~size:1 in
  Kernel.Ebpf_maps.Array_map.kernel_update m_sel 0 bitmap;
  let m_socket = Kernel.Ebpf_maps.Sockarray.create ~name:"M_sock" ~size:workers in
  let socks =
    Array.init workers (fun i ->
        let s = Kernel.Socket.create_listen ~port:80 ~backlog:4 () in
        Kernel.Ebpf_maps.Sockarray.set m_socket i s;
        s)
  in
  (m_sel, m_socket, socks)

let run_dispatch ~bitmap ~flow_hash ~min_selected =
  let m_sel, m_socket, socks = make_dispatch_env ~workers:8 ~bitmap in
  let prog =
    Kernel.Ebpf.verify_exn
      (Hermes.Dispatch.single_group ~m_sel ~m_socket ~min_selected)
  in
  let outcome, _ = Kernel.Ebpf.run prog { Kernel.Ebpf.flow_hash; dst_port = 80 } in
  (outcome, socks)

let test_dispatch_selects_from_bitmap () =
  let bitmap = Kernel.Bitops.bits_of_list [ 1; 4; 6 ] in
  let rng = Engine.Rng.create 1 in
  for _ = 1 to 200 do
    let flow_hash = Engine.Rng.int rng 0xFFFFFFFF in
    match run_dispatch ~bitmap ~flow_hash ~min_selected:2 with
    | Kernel.Ebpf.Selected sock, socks ->
      let slot = ref (-1) in
      Array.iteri
        (fun i s -> if Kernel.Socket.id s = Kernel.Socket.id sock then slot := i)
        socks;
      check Alcotest.bool "selected a bitmap member" true
        (List.mem !slot [ 1; 4; 6 ])
    | ( ( Kernel.Ebpf.Fell_back | Kernel.Ebpf.Dropped
        | Kernel.Ebpf.Redirected _ ),
        _ ) ->
      Alcotest.fail "should select"
  done

let test_dispatch_fallback_below_threshold () =
  let bitmap = Kernel.Bitops.bits_of_list [ 3 ] in
  (match run_dispatch ~bitmap ~flow_hash:123 ~min_selected:2 with
  | Kernel.Ebpf.Fell_back, _ -> ()
  | _ -> Alcotest.fail "one worker < min_selected: must fall back");
  (* with min_selected = 1, the single worker is selected *)
  match run_dispatch ~bitmap ~flow_hash:123 ~min_selected:1 with
  | Kernel.Ebpf.Selected _, _ -> ()
  | _ -> Alcotest.fail "min_selected=1 should select"

let test_dispatch_empty_bitmap () =
  match run_dispatch ~bitmap:0L ~flow_hash:99 ~min_selected:2 with
  | Kernel.Ebpf.Fell_back, _ -> ()
  | _ -> Alcotest.fail "empty bitmap must fall back"

let test_dispatch_balances () =
  let bitmap = Kernel.Bitops.bits_of_list [ 0; 1; 2; 3 ] in
  let m_sel, m_socket, socks = make_dispatch_env ~workers:4 ~bitmap in
  let prog =
    Kernel.Ebpf.verify_exn
      (Hermes.Dispatch.single_group ~m_sel ~m_socket ~min_selected:2)
  in
  let counts = Array.make 4 0 in
  let rng = Engine.Rng.create 2 in
  for _ = 1 to 4000 do
    match Kernel.Ebpf.run prog { Kernel.Ebpf.flow_hash = Engine.Rng.int rng 0xFFFFFFFF; dst_port = 80 } with
    | Kernel.Ebpf.Selected sock, _ ->
      Array.iteri
        (fun i s -> if Kernel.Socket.id s = Kernel.Socket.id sock then counts.(i) <- counts.(i) + 1)
        socks
    | _ -> Alcotest.fail "should select"
  done;
  Array.iter
    (fun c -> check Alcotest.bool "balanced" true (abs (c - 1000) < 250))
    counts

(* ------------------------------------------------------------------ *)
(* Groups                                                               *)

let test_groups_partition () =
  let g = Hermes.Groups.create ~workers:130 ~group_size:64 ~mode:Hermes.Groups.By_flow_hash in
  check Alcotest.(pair int int) "g0 holds 64" (0, 63) (Hermes.Groups.group_of_worker g 63);
  check Alcotest.(pair int int) "g2 starts at 128" (2, 0) (Hermes.Groups.group_of_worker g 128);
  check Alcotest.(pair int int) "worker 64" (1, 0) (Hermes.Groups.group_of_worker g 64);
  check Alcotest.(pair int int) "worker 129" (2, 1) (Hermes.Groups.group_of_worker g 129)

let test_groups_independent_wsts () =
  let g = Hermes.Groups.create ~workers:4 ~group_size:2 ~mode:Hermes.Groups.By_flow_hash in
  Hermes.Wst.add_conn (Hermes.Groups.wst g 0) 0 9;
  check Alcotest.int "group 1 untouched" 0 (conn (Hermes.Groups.wst g 1) 0)

let test_groups_two_level_prog () =
  (* 4 workers, groups of 2: bitmaps select exactly one worker per
     group; the selected global id must be in the hashed group. *)
  let g = Hermes.Groups.create ~workers:4 ~group_size:2 ~mode:Hermes.Groups.By_flow_hash in
  let m_sel = Hermes.Groups.m_sel g in
  (* group 0: worker 0 and 1 available; group 1: workers 2 and 3 *)
  Kernel.Ebpf_maps.Array_map.kernel_update m_sel 0 (Kernel.Bitops.bits_of_list [ 0; 1 ]);
  Kernel.Ebpf_maps.Array_map.kernel_update m_sel 1 (Kernel.Bitops.bits_of_list [ 0; 1 ]);
  let m_socket = Kernel.Ebpf_maps.Sockarray.create ~name:"ms" ~size:4 in
  let socks =
    Array.init 4 (fun i ->
        let s = Kernel.Socket.create_listen ~port:80 ~backlog:4 () in
        Kernel.Ebpf_maps.Sockarray.set m_socket i s;
        s)
  in
  let prog =
    Kernel.Ebpf.verify_exn (Hermes.Groups.make_prog g ~m_socket ~min_selected:2)
  in
  let rng = Engine.Rng.create 3 in
  let per_group = [| 0; 0 |] in
  for _ = 1 to 400 do
    let flow_hash = Engine.Rng.int rng 0xFFFFFFFF in
    match Kernel.Ebpf.run prog { Kernel.Ebpf.flow_hash; dst_port = 80 } with
    | Kernel.Ebpf.Selected sock, _ ->
      let global = ref (-1) in
      Array.iteri
        (fun i s -> if Kernel.Socket.id s = Kernel.Socket.id sock then global := i)
        socks;
      let expected_group = Kernel.Bitops.reciprocal_scale ~hash:flow_hash ~n:2 in
      check Alcotest.int "selected in hashed group" expected_group (!global / 2);
      per_group.(expected_group) <- per_group.(expected_group) + 1
    | _ -> Alcotest.fail "should select"
  done;
  check Alcotest.bool "both groups used" true (per_group.(0) > 50 && per_group.(1) > 50)

let test_groups_dport_locality () =
  let g = Hermes.Groups.create ~workers:4 ~group_size:2 ~mode:Hermes.Groups.By_dst_port in
  let m_sel = Hermes.Groups.m_sel g in
  Kernel.Ebpf_maps.Array_map.kernel_update m_sel 0 (Kernel.Bitops.bits_of_list [ 0; 1 ]);
  Kernel.Ebpf_maps.Array_map.kernel_update m_sel 1 (Kernel.Bitops.bits_of_list [ 0; 1 ]);
  let m_socket = Kernel.Ebpf_maps.Sockarray.create ~name:"ms" ~size:4 in
  let socks =
    Array.init 4 (fun i ->
        let s = Kernel.Socket.create_listen ~port:80 ~backlog:4 () in
        Kernel.Ebpf_maps.Sockarray.set m_socket i s;
        s)
  in
  let prog =
    Kernel.Ebpf.verify_exn (Hermes.Groups.make_prog g ~m_socket ~min_selected:2)
  in
  (* same dst_port always lands in the same group, any flow hash *)
  let rng = Engine.Rng.create 4 in
  let groups_seen = Hashtbl.create 4 in
  for _ = 1 to 100 do
    match
      Kernel.Ebpf.run prog
        { Kernel.Ebpf.flow_hash = Engine.Rng.int rng 0xFFFFFFFF; dst_port = 8081 }
    with
    | Kernel.Ebpf.Selected sock, _ ->
      Array.iteri
        (fun i s ->
          if Kernel.Socket.id s = Kernel.Socket.id sock then
            Hashtbl.replace groups_seen (i / 2) ())
        socks
    | _ -> Alcotest.fail "should select"
  done;
  check Alcotest.int "one group only" 1 (Hashtbl.length groups_seen)

let test_groups_invalid () =
  Alcotest.check_raises "group size"
    (Invalid_argument "Groups.create: group_size must be in 1..64") (fun () ->
      ignore (Hermes.Groups.create ~workers:4 ~group_size:65 ~mode:Hermes.Groups.By_flow_hash))

(* ------------------------------------------------------------------ *)
(* Runtime                                                              *)

let test_runtime_schedule_and_sync () =
  let rt = Hermes.Runtime.create ~config:Hermes.Config.default ~workers:4 () in
  (* mark everyone available *)
  for w = 0 to 3 do
    Hermes.Metrics.avail_update (Hermes.Runtime.hooks rt w) ~now:(ms 99)
  done;
  let result = ref None in
  let records =
    Capture.records (fun () ->
        result := Some (Hermes.Runtime.schedule_and_sync rt ~worker:0 ~now:(ms 100)))
  in
  check Alcotest.int "all pass" 4 (Option.get !result).Hermes.Scheduler.passed;
  (* bitmap landed in the map via one syscall *)
  check Alcotest.int "one syscall" 1
    (List.length
       (List.filter
          (fun r -> match r.Trace.event with Trace.Map_update _ -> true | _ -> false)
          records));
  let m = Hermes.Groups.m_sel (Hermes.Runtime.groups rt) in
  check Alcotest.int64 "bitmap stored" (Kernel.Bitops.bits_of_list [ 0; 1; 2; 3 ])
    (Kernel.Ebpf_maps.Array_map.lookup m 0)

let test_runtime_mark_dead () =
  let rt = Hermes.Runtime.create ~config:Hermes.Config.default ~workers:2 () in
  Hermes.Metrics.avail_update (Hermes.Runtime.hooks rt 0) ~now:(ms 500);
  Hermes.Metrics.avail_update (Hermes.Runtime.hooks rt 1) ~now:(ms 500);
  Hermes.Runtime.mark_dead rt ~worker:1;
  let result = Hermes.Runtime.schedule_and_sync rt ~worker:0 ~now:(ms 501) in
  check Alcotest.(list int) "dead excluded" [ 0 ]
    (Bitmap.to_list result.Hermes.Scheduler.bitmap)

let test_runtime_accounting () =
  let rt = Hermes.Runtime.create ~config:Hermes.Config.default ~workers:2 () in
  Hermes.Metrics.busy_count (Hermes.Runtime.hooks rt 0) 1;
  ignore (Hermes.Runtime.schedule_and_sync rt ~worker:0 ~now:(ms 1));
  ignore (Hermes.Runtime.schedule_and_sync rt ~worker:1 ~now:(ms 2));
  let acc = Hermes.Runtime.accounting rt in
  check Alcotest.int "sched calls" 2 acc.Hermes.Runtime.scheduler_calls;
  check Alcotest.int "sync calls" 2 acc.Hermes.Runtime.sync_calls;
  check Alcotest.bool "counter cycles" true (acc.Hermes.Runtime.counter_cycles > 0);
  check Alcotest.bool "syscall cycles" true (acc.Hermes.Runtime.syscall_cycles > 0);
  check Alcotest.bool "pass ratio in [0,1]" true
    (Hermes.Runtime.pass_ratio rt >= 0.0 && Hermes.Runtime.pass_ratio rt <= 1.0);
  Hermes.Runtime.reset_accounting rt;
  check Alcotest.int "reset" 0 (Hermes.Runtime.accounting rt).Hermes.Runtime.scheduler_calls

let test_runtime_group_isolation () =
  (* schedule_and_sync for a worker only updates its own group's slot *)
  let rt =
    Hermes.Runtime.create ~group_size:2 ~config:Hermes.Config.default ~workers:4 ()
  in
  for w = 0 to 3 do
    Hermes.Metrics.avail_update (Hermes.Runtime.hooks rt w) ~now:(ms 10)
  done;
  ignore (Hermes.Runtime.schedule_and_sync rt ~worker:3 ~now:(ms 11));
  let m = Hermes.Groups.m_sel (Hermes.Runtime.groups rt) in
  check Alcotest.int64 "group 0 untouched" 0L (Kernel.Ebpf_maps.Array_map.lookup m 0);
  check Alcotest.bool "group 1 updated" true
    (Kernel.Ebpf_maps.Array_map.lookup m 1 <> 0L)

(* ------------------------------------------------------------------ *)
(* Degrade                                                              *)

let policy = { Hermes.Degrade.util_threshold = 0.95; shed_fraction = 0.25; min_shed = 1 }
let total_shed plan = List.fold_left (fun acc { Hermes.Degrade.shed; _ } -> acc + shed) 0 plan

let test_degrade_plan () =
  let plan =
    Hermes.Degrade.plan ~policy
      ~utilization:[| 0.99; 0.5; 0.97 |]
      ~conn_counts:[| 100; 100; 0 |]
  in
  (* worker 0 overloaded with conns: sheds 25; worker 2 overloaded but
     has nothing to shed; worker 1 healthy *)
  check Alcotest.int "one entry" 1 (List.length plan);
  (match plan with
  | [ { Hermes.Degrade.worker; shed } ] ->
    check Alcotest.int "worker 0" 0 worker;
    check Alcotest.int "sheds a quarter" 25 shed
  | _ -> Alcotest.fail "unexpected plan");
  check Alcotest.int "total" 25 (total_shed plan)

let test_degrade_min_shed () =
  let policy = { policy with shed_fraction = 0.0; min_shed = 3 } in
  let plan =
    Hermes.Degrade.plan ~policy ~utilization:[| 1.0 |] ~conn_counts:[| 2 |]
  in
  (* min_shed 3 capped by the 2 available connections *)
  check Alcotest.int "capped" 2 (total_shed plan)

let test_degrade_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Degrade.plan: array length mismatch") (fun () ->
      ignore
        (Hermes.Degrade.plan ~policy
           ~utilization:[| 1.0 |] ~conn_counts:[| 1; 2 |]))

(* ------------------------------------------------------------------ *)
(* Config                                                               *)

let test_config_defaults () =
  let c = Hermes.Config.default in
  check (Alcotest.float 1e-9) "theta" 0.5 c.Hermes.Config.theta_ratio;
  check Alcotest.int "timeout 5ms" (ms 5) Lb.Worker.default_config.Lb.Worker.epoll_timeout;
  check Alcotest.int "min selected" 2 c.Hermes.Config.min_selected;
  check Alcotest.bool "at loop end" true c.Hermes.Config.schedule_at_loop_end

let () =
  Alcotest.run "hermes"
    [
      ( "wst",
        [
          Alcotest.test_case "basic" `Quick test_wst_basic;
          Alcotest.test_case "snapshot" `Quick test_wst_snapshot;
          Alcotest.test_case "invalid" `Quick test_wst_invalid;
          QCheck_alcotest.to_alcotest prop_wst_sums;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "hooks" `Quick test_metrics_hooks;
          Alcotest.test_case "range" `Quick test_metrics_range;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "filter_time" `Quick test_filter_time;
          Alcotest.test_case "filter_count average" `Quick test_filter_count_average;
          Alcotest.test_case "idle floor" `Quick test_filter_count_idle_floor;
          Alcotest.test_case "mask respected" `Quick test_filter_count_respects_mask;
          Alcotest.test_case "cascade" `Quick test_schedule_cascade;
          Alcotest.test_case "all idle" `Quick test_schedule_all_idle;
          Alcotest.test_case "filter order config" `Quick test_schedule_filter_order_config;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "selects from bitmap" `Quick test_dispatch_selects_from_bitmap;
          Alcotest.test_case "fallback threshold" `Quick test_dispatch_fallback_below_threshold;
          Alcotest.test_case "empty bitmap" `Quick test_dispatch_empty_bitmap;
          Alcotest.test_case "balances" `Quick test_dispatch_balances;
        ] );
      ( "groups",
        [
          Alcotest.test_case "partition" `Quick test_groups_partition;
          Alcotest.test_case "independent wsts" `Quick test_groups_independent_wsts;
          Alcotest.test_case "two-level prog" `Quick test_groups_two_level_prog;
          Alcotest.test_case "dport locality" `Quick test_groups_dport_locality;
          Alcotest.test_case "invalid" `Quick test_groups_invalid;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "schedule and sync" `Quick test_runtime_schedule_and_sync;
          Alcotest.test_case "mark dead" `Quick test_runtime_mark_dead;
          Alcotest.test_case "accounting" `Quick test_runtime_accounting;
          Alcotest.test_case "group isolation" `Quick test_runtime_group_isolation;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "plan" `Quick test_degrade_plan;
          Alcotest.test_case "min shed" `Quick test_degrade_min_shed;
          Alcotest.test_case "mismatch" `Quick test_degrade_mismatch;
        ] );
      ( "config", [ Alcotest.test_case "defaults" `Quick test_config_defaults ] );
    ]
