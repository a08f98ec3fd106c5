type client_mix = {
  fast_fraction : float;
  fast_mean_hours : float;
  slow_mean_hours : float;
}

let mobile_heavy =
  { fast_fraction = 0.98; fast_mean_hours = 2.0; slow_mean_hours = 24.0 }

let iot_heavy =
  { fast_fraction = 0.80; fast_mean_hours = 6.0; slow_mean_hours = 26.0 *. 24.0 }

type config = {
  rollout_days : int;
  old_hang_probes_per_day : float;
  new_hang_probes_per_day : float;
  mix : client_mix;
}

(* Fraction of a VM-group's connections still alive [age_days] after it
   was pulled from rotation: a two-component exponential survival. *)
let survival mix ~age_days =
  let age_h = age_days *. 24.0 in
  (mix.fast_fraction *. exp (-.age_h /. mix.fast_mean_hours))
  +. ((1.0 -. mix.fast_fraction) *. exp (-.age_h /. mix.slow_mean_hours))

(* Expected fraction of traffic still flowing to old-version VMs on
   [day] (0-based): the undeployed fraction plus the undrained tail of
   already-replaced VMs. *)
let residual_old_traffic cfg ~day =
  let d = float_of_int day and total = float_of_int cfg.rollout_days in
  (* Fraction of the fleet not yet replaced. *)
  let undeployed = Float.max 0.0 (1.0 -. (d /. total)) in
  (* VMs replaced on earlier days still hold their undrained tails;
     each day's replacement batch is 1/rollout_days of traffic. *)
  let tail = ref 0.0 in
  let last_batch = min day (cfg.rollout_days - 1) in
  for replaced_on = 0 to last_batch do
    let age = float_of_int (day - replaced_on) in
    tail := !tail +. (survival cfg.mix ~age_days:age /. total)
  done;
  Float.min 1.0 (undeployed +. !tail)

let delayed_probes_series cfg ~days =
  if days <= 0 then invalid_arg "Canary.delayed_probes_series: days > 0";
  Array.init days (fun day ->
      let old_share = residual_old_traffic cfg ~day in
      (old_share *. cfg.old_hang_probes_per_day)
      +. ((1.0 -. old_share) *. cfg.new_hang_probes_per_day))
