module Sim = Engine.Sim
module Sim_time = Engine.Sim_time

type kind =
  | Syn_flood of { cps : float }
  | Cc of { cps : float; request_cost : Sim_time.t; per_conn : int }

type t = {
  device : Lb.Device.t;
  target_tenant : int;
  attack : kind;
  gap : Engine.Dist.t; (* inter-arrival time, built once per attack *)
  rng : Engine.Rng.t;
  mutable running : bool;
  mutable conns : int;
  mutable requests : int;
}

let kind t = t.attack
let tenant t = t.target_tenant
let conns_attempted t = t.conns
let requests_sent t = t.requests
let stop t = t.running <- false

let cps_of = function Syn_flood { cps } -> cps | Cc { cps; _ } -> cps

let fire t =
  t.conns <- t.conns + 1;
  match t.attack with
  | Syn_flood _ ->
    (* the handshake completes (the L4 stack did its job) but the
       connection then sits silent, squatting a pool slot *)
    Lb.Device.connect t.device ~tenant:t.target_tenant
      ~events:Lb.Device.null_conn_events
  | Cc { request_cost; per_conn; _ } ->
    let events =
      {
        Lb.Device.null_conn_events with
        established =
          (fun conn ->
            for _ = 1 to per_conn do
              t.requests <- t.requests + 1;
              ignore
                (Lb.Device.send t.device conn
                   (Lb.Request.make ~id:(Lb.Device.fresh_id t.device)
                      ~op:Lb.Request.Regex_route ~size:512 ~cost:request_cost
                      ~tenant_id:conn.Lb.Conn.tenant_id))
            done);
      }
    in
    Lb.Device.connect t.device ~tenant:t.target_tenant ~events

let rec arrival_loop t =
  if t.running then begin
    fire t;
    let gap = Engine.Dist.sample t.gap t.rng in
    ignore
      (Sim.schedule_after (Lb.Device.sim t.device)
         ~delay:(max 1 (Sim_time.of_sec_f gap))
         (fun () -> arrival_loop t))
  end

let launch ~device ~tenant ~kind ~rng =
  if cps_of kind <= 0.0 then invalid_arg "Attack.launch: cps must be positive";
  let t =
    {
      device;
      target_tenant = tenant;
      attack = kind;
      gap = Engine.Dist.exponential ~mean:(1.0 /. cps_of kind);
      rng;
      running = true;
      conns = 0;
      requests = 0;
    }
  in
  arrival_loop t;
  t
