(* Tests for the cluster library: autoscaling/unit cost, shuffle
   sharding with phased scaling, and the canary rollout model. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Autoscale                                                            *)

(* The VM count a policy holds for one epoch of [offered_cpu]. *)
let vms_needed p ~offered_cpu =
  (Cluster.Autoscale.simulate p
     [| { Cluster.Autoscale.offered_cpu; traffic_units = 1.0 } |]
     ~epoch_hours:1.0)
    .vm_series.(0)

let test_vms_needed () =
  let p = Cluster.Autoscale.policy_before_hermes in
  (* capacity per VM at threshold 0.30 on 32 cores = 9.6 CPU-s/s *)
  check Alcotest.int "fits in min" 2 (vms_needed p ~offered_cpu:1.0);
  check Alcotest.int "needs 11" 11 (vms_needed p ~offered_cpu:100.0);
  let p40 = Cluster.Autoscale.policy_after_hermes in
  check Alcotest.int "higher threshold needs fewer" 8 (vms_needed p40 ~offered_cpu:100.0)

let test_autoscale_scale_out_and_in () =
  let p = { Cluster.Autoscale.policy_before_hermes with min_vms = 1 } in
  let epoch load = { Cluster.Autoscale.offered_cpu = load; traffic_units = load } in
  let outcome =
    Cluster.Autoscale.simulate p
      [| epoch 5.0; epoch 100.0; epoch 100.0; epoch 5.0; epoch 5.0 |]
      ~epoch_hours:1.0
  in
  check Alcotest.int "scaled out" 11 outcome.Cluster.Autoscale.vm_series.(1);
  (* scale-in happens but with hysteresis *)
  check Alcotest.bool "scaled back in" true
    (outcome.Cluster.Autoscale.vm_series.(4) < 11);
  check Alcotest.bool "unit cost positive" true (outcome.Cluster.Autoscale.unit_cost > 0.0)

let test_autoscale_before_after_cost () =
  let epochs =
    Array.init 60 (fun i ->
        let load = 200.0 +. (10.0 *. float_of_int (i mod 6)) in
        { Cluster.Autoscale.offered_cpu = load; traffic_units = load })
  in
  let before =
    Cluster.Autoscale.simulate Cluster.Autoscale.policy_before_hermes epochs
      ~epoch_hours:1.0
  in
  let after =
    Cluster.Autoscale.simulate Cluster.Autoscale.policy_after_hermes epochs
      ~epoch_hours:1.0
  in
  check Alcotest.bool "after is cheaper" true
    (after.Cluster.Autoscale.unit_cost < before.Cluster.Autoscale.unit_cost);
  (* saving bounded by the threshold ratio *)
  let saving = 1.0 -. (after.unit_cost /. before.unit_cost) in
  check Alcotest.bool "saving <= 25% bound" true (saving <= 0.2501 && saving > 0.1)

let test_autoscale_invalid () =
  Alcotest.check_raises "no epochs" (Invalid_argument "Autoscale.simulate: no epochs")
    (fun () ->
      ignore
        (Cluster.Autoscale.simulate Cluster.Autoscale.policy_before_hermes [||]
           ~epoch_hours:1.0))

(* ------------------------------------------------------------------ *)
(* Shuffle sharding                                                     *)

let test_phased_scaling () =
  check Alcotest.bool "under target: nothing" true
    (Cluster.Shuffle_shard.plan_scaling ~current_vms:10 ~utilization:0.3
       ~target:0.4 ~headroom_vms:5
    = None);
  (match
     Cluster.Shuffle_shard.plan_scaling ~current_vms:10 ~utilization:0.5
       ~target:0.4 ~headroom_vms:5
   with
  | Some { Cluster.Shuffle_shard.phase = Cluster.Shuffle_shard.Scale_up_groups; vms_added } ->
    check Alcotest.int "adds 3" 3 vms_added
  | _ -> Alcotest.fail "expected scale-up");
  match
    Cluster.Shuffle_shard.plan_scaling ~current_vms:10 ~utilization:1.2
      ~target:0.4 ~headroom_vms:5
  with
  | Some { Cluster.Shuffle_shard.phase = Cluster.Shuffle_shard.New_groups; vms_added } ->
    check Alcotest.bool "big deficit" true (vms_added > 5)
  | _ -> Alcotest.fail "expected new groups"

(* ------------------------------------------------------------------ *)
(* Canary                                                               *)

let test_canary_residual_monotone () =
  let cfg =
    {
      Cluster.Canary.rollout_days = 5;
      old_hang_probes_per_day = 100.0;
      new_hang_probes_per_day = 1.0;
      mix = Cluster.Canary.mobile_heavy;
    }
  in
  (* the old-version share only shrinks, so each day's expected probes
     lie between the two versions' rates and never rise *)
  let prev = ref infinity in
  Array.iter
    (fun r ->
      check Alcotest.bool "between the rates" true (r >= 1.0 && r <= 100.0 +. 1e-9);
      check Alcotest.bool "non-increasing" true (r <= !prev +. 1e-9);
      prev := r)
    (Cluster.Canary.delayed_probes_series cfg ~days:15)

let test_canary_series_converges () =
  let series mix =
    Cluster.Canary.delayed_probes_series
      {
        Cluster.Canary.rollout_days = 4;
        old_hang_probes_per_day = 500.0;
        new_hang_probes_per_day = 1.0;
        mix;
      }
      ~days:20
  in
  let fast = series Cluster.Canary.mobile_heavy in
  let slow = series Cluster.Canary.iot_heavy in
  check Alcotest.int "20 days" 20 (Array.length fast);
  (* both start at the old level *)
  check (Alcotest.float 1.0) "day 0" 500.0 fast.(0);
  (* mobile drains quickly; IoT still carries a tail at day 10 *)
  check Alcotest.bool "mobile near floor by day 10" true (fast.(10) < 10.0);
  check Alcotest.bool "iot tail persists" true (slow.(10) > 5.0 *. fast.(10));
  (* 99%+ reduction eventually, as in Fig. 11 *)
  check Alcotest.bool "converges to floor" true (fast.(19) < 0.01 *. fast.(0))

let test_canary_invalid () =
  let cfg =
    {
      Cluster.Canary.rollout_days = 2;
      old_hang_probes_per_day = 1.0;
      new_hang_probes_per_day = 0.0;
      mix = Cluster.Canary.mobile_heavy;
    }
  in
  Alcotest.check_raises "no days"
    (Invalid_argument "Canary.delayed_probes_series: days > 0") (fun () ->
      ignore (Cluster.Canary.delayed_probes_series cfg ~days:0))

let () =
  Alcotest.run "cluster"
    [
      ( "autoscale",
        [
          Alcotest.test_case "vms needed" `Quick test_vms_needed;
          Alcotest.test_case "scale out and in" `Quick test_autoscale_scale_out_and_in;
          Alcotest.test_case "before/after cost" `Quick test_autoscale_before_after_cost;
          Alcotest.test_case "invalid" `Quick test_autoscale_invalid;
        ] );
      ( "shuffle_shard",
        [
          Alcotest.test_case "phased scaling" `Quick test_phased_scaling;
        ] );
      ( "canary",
        [
          Alcotest.test_case "residual monotone" `Quick test_canary_residual_monotone;
          Alcotest.test_case "series converges" `Quick test_canary_series_converges;
          Alcotest.test_case "invalid" `Quick test_canary_invalid;
        ] );
    ]
