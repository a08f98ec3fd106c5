module Sim = Engine.Sim
module Sim_time = Engine.Sim_time

type config = {
  interval : Sim_time.t;
  timeout : Sim_time.t;
  delayed_threshold : Sim_time.t;
}

let default_config =
  {
    interval = Sim_time.ms 100;
    timeout = Sim_time.sec 2;
    delayed_threshold = Sim_time.ms 200;
  }

module Per_worker = struct
  type pw = {
    sim : Sim.t;
    cfg : config;
    target : Device.t;
    mutable running : bool;
    mutable sent_count : int;
    mutable delayed_count : int;
    per_worker : int array;
    conns : Conn.t array;
    (* one probe in flight per worker: overlapping probes on the same
       connection would mistake each other's completions for their own *)
    outstanding : bool array;
  }

  type t = pw

  let count_delayed t w =
    t.delayed_count <- t.delayed_count + 1;
    t.per_worker.(w) <- t.per_worker.(w) + 1

  (* One probe on worker [w]'s monitoring connection; a probe that
     cannot complete within the timeout counts as delayed. *)
  let probe_worker t w =
    t.sent_count <- t.sent_count + 1;
    t.outstanding.(w) <- true;
    let started = Sim.now t.sim in
    let answered = ref false in
    let conn = t.conns.(w) in
    (* Completion is observed by polling the connection's
       requests_done counter (the probe is the only traffic on it). *)
    let before_done = conn.Conn.requests_done in
    if Device.probe_lost t.target then
      (* lost on the wire: the timeout is the only outcome *)
      ignore
        (Sim.schedule_after t.sim ~delay:t.cfg.timeout (fun () ->
             t.outstanding.(w) <- false;
             count_delayed t w))
    else if
      Worker.deliver (Device.worker t.target w) conn
        (Request.make ~id:(Device.fresh_id t.target) ~op:Request.Plain_proxy ~size:64
           ~cost:(Sim_time.us 10) ~tenant_id:conn.Conn.tenant_id)
    then begin
      let rec check () =
        if not !answered then begin
          if conn.Conn.requests_done > before_done then begin
            answered := true;
            t.outstanding.(w) <- false;
            let delay = Sim_time.sub (Sim.now t.sim) started in
            if delay > t.cfg.delayed_threshold then count_delayed t w
          end
          else if Sim_time.sub (Sim.now t.sim) started >= t.cfg.timeout then begin
            answered := true;
            t.outstanding.(w) <- false;
            count_delayed t w
          end
          else ignore (Sim.schedule_after t.sim ~delay:(Sim_time.ms 10) check)
        end
      in
      ignore (Sim.schedule_after t.sim ~delay:(Sim_time.ms 1) check)
    end
    else begin
      (* Connection died (worker crash): immediate loss. *)
      t.outstanding.(w) <- false;
      count_delayed t w
    end

  let rec tick t () =
    if t.running then begin
      for w = 0 to Array.length t.conns - 1 do
        if t.outstanding.(w) then
          (* previous probe still in flight: the worker is already under
             observation; do not stack probes on its connection *)
          ()
        else if not (Worker.is_crashed (Device.worker t.target w)) then
          probe_worker t w
        else begin
          t.sent_count <- t.sent_count + 1;
          count_delayed t w
        end
      done;
      ignore (Sim.schedule_after t.sim ~delay:t.cfg.interval (tick t))
    end

  let start ~config ~target =
    let sim = Device.sim target in
    let n = Device.worker_count target in
    let conns =
      Array.init n (fun w ->
          Worker.adopt_conn (Device.worker target w)
            ~tenant_id:(Device.tenants target).(0).Netsim.Tenant.id)
    in
    let t =
      {
        sim;
        cfg = config;
        target;
        running = true;
        sent_count = 0;
        delayed_count = 0;
        per_worker = Array.make n 0;
        conns;
        outstanding = Array.make n false;
      }
    in
    ignore (Sim.schedule_after sim ~delay:config.interval (tick t));
    t

  let stop t = t.running <- false
  let sent t = t.sent_count
  let delayed t = t.delayed_count
  let delayed_by_worker t = Array.copy t.per_worker
end
