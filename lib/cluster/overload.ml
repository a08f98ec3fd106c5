module Sim = Engine.Sim
module Sim_time = Engine.Sim_time

type verdict =
  | Not_overloaded
  | Syn_flood_suspected of { tenant : int; conn_share : float }
  | Cc_suspected of { tenant : int; cpu_share : float }
  | Legit_surge

let pp_verdict fmt = function
  | Not_overloaded -> Format.fprintf fmt "not overloaded"
  | Syn_flood_suspected { tenant; conn_share } ->
    Format.fprintf fmt "SYN flood suspected: tenant %d (%.0f%% of new conns)"
      tenant (100.0 *. conn_share)
  | Cc_suspected { tenant; cpu_share } ->
    Format.fprintf fmt "CC attack suspected: tenant %d (%.0f%% of CPU)" tenant
      (100.0 *. cpu_share)
  | Legit_surge -> Format.fprintf fmt "legitimate surge"

type thresholds = {
  util_trigger : float;
  conn_rate_trigger : float;
  dominance : float;
  flood_cpu_per_conn : Sim_time.t;
}

let default_thresholds =
  {
    util_trigger = 0.9;
    conn_rate_trigger = 3000.0;
    dominance = 0.5;
    flood_cpu_per_conn = Sim_time.us 50;
  }

let classify ~thresholds ~utilization ~window ~workers ~tenants =
  if window <= 0 then invalid_arg "Overload.classify: window must be positive";
  if workers <= 0 then invalid_arg "Overload.classify: workers must be positive";
  let conn_rate_per_worker =
    float_of_int
      (Array.fold_left (fun acc s -> acc + s.Lb.Device.new_conns) 0 tenants)
    /. Sim_time.to_sec_f window /. float_of_int workers
  in
  if
    utilization < thresholds.util_trigger
    && conn_rate_per_worker < thresholds.conn_rate_trigger
  then Not_overloaded
  else begin
    let total_conns =
      Array.fold_left (fun acc s -> acc + s.Lb.Device.new_conns) 0 tenants
    in
    let total_cpu =
      Array.fold_left (fun acc s -> acc + s.Lb.Device.cpu_consumed) 0 tenants
    in
    (* The dominant contributor along each axis. *)
    let argmax f =
      let best = ref 0 in
      Array.iteri (fun i s -> if f s > f tenants.(!best) then best := i) tenants;
      !best
    in
    let conn_king = argmax (fun s -> s.Lb.Device.new_conns) in
    let cpu_king = argmax (fun s -> Sim_time.to_sec_f s.Lb.Device.cpu_consumed) in
    let conn_share =
      if total_conns = 0 then 0.0
      else
        float_of_int tenants.(conn_king).Lb.Device.new_conns
        /. float_of_int total_conns
    in
    let cpu_share =
      if total_cpu = 0 then 0.0
      else
        float_of_int tenants.(cpu_king).Lb.Device.cpu_consumed
        /. float_of_int total_cpu
    in
    let king_conns = tenants.(conn_king).Lb.Device.new_conns in
    let king_cpu_per_conn =
      if king_conns = 0 then max_int
      else tenants.(conn_king).Lb.Device.cpu_consumed / king_conns
    in
    if
      conn_share >= thresholds.dominance
      && king_cpu_per_conn < thresholds.flood_cpu_per_conn
    then Syn_flood_suspected { tenant = conn_king; conn_share }
    else if cpu_share >= thresholds.dominance then
      Cc_suspected { tenant = cpu_king; cpu_share }
    else Legit_surge
  end

type response =
  | No_action
  | Quarantine of int
  | Scale of Shuffle_shard.decision

let respond verdict ~current_vms ~utilization ~target ~headroom_vms =
  match verdict with
  | Not_overloaded -> No_action
  | Syn_flood_suspected { tenant; _ } | Cc_suspected { tenant; _ } ->
    Quarantine tenant
  | Legit_surge -> (
    match
      Shuffle_shard.plan_scaling ~current_vms ~utilization ~target ~headroom_vms
    with
    | Some decision -> Scale decision
    | None -> No_action)

type monitor = {
  device : Lb.Device.t;
  thresholds : thresholds;
  check_every : Sim_time.t;
  on_verdict : verdict -> unit;
  mutable running : bool;
  mutable prev_cpu : Sim_time.t array;
}

let rec tick m () =
  if m.running then begin
    let util =
      Stats.Summary.mean
        (Lb.Device.utilization_since m.device m.prev_cpu ~window:m.check_every)
    in
    m.prev_cpu <- Lb.Device.cpu_busy_per_worker m.device;
    let tenants = Lb.Device.tenant_report m.device in
    Lb.Device.reset_tenant_report m.device;
    let verdict =
      classify ~thresholds:m.thresholds ~utilization:util ~window:m.check_every
        ~workers:(Lb.Device.worker_count m.device) ~tenants
    in
    (match verdict with
    | Not_overloaded -> ()
    | Syn_flood_suspected { tenant; _ } | Cc_suspected { tenant; _ } ->
      m.on_verdict verdict;
      if not (Lb.Device.is_quarantined m.device ~tenant) then
        Lb.Device.quarantine_tenant m.device ~tenant
    | Legit_surge -> m.on_verdict verdict);
    ignore
      (Sim.schedule_after (Lb.Device.sim m.device) ~delay:m.check_every (tick m))
  end

let watch ~device ?(thresholds = default_thresholds) ~check_every ~on_verdict () =
  let m =
    {
      device;
      thresholds;
      check_every;
      on_verdict;
      running = true;
      prev_cpu = Lb.Device.cpu_busy_per_worker device;
    }
  in
  Lb.Device.reset_tenant_report device;
  ignore (Sim.schedule_after (Lb.Device.sim device) ~delay:check_every (tick m));
  m

let unwatch m = m.running <- false
