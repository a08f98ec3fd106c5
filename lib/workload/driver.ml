module Sim = Engine.Sim
module Sim_time = Engine.Sim_time

type t = {
  device : Lb.Device.t;
  profile : Profile.t;
  rng : Engine.Rng.t;
  reconnect_on_reset : bool;
  pick_tenant : unit -> int;
  pick_op : unit -> Lb.Request.op;
  arrival_gap : Engine.Dist.t;
  mutable running : bool;
  mutable opened : int;
  mutable sent : int;
}

let conns_opened t = t.opened
let requests_sent t = t.sent
let stop t = t.running <- false

let sim t = Lb.Device.sim t.device

let make_request t ~tenant_id =
  let op = t.pick_op () in
  let size =
    int_of_float (Engine.Dist.sample t.profile.Profile.request_size t.rng)
  in
  let seconds = Engine.Dist.sample t.profile.Profile.processing_time t.rng in
  let cost = max 1 (Sim_time.of_sec_f seconds) in
  Lb.Request.make ~id:(Lb.Device.fresh_id t.device) ~op ~size:(max 0 size)
    ~cost ~tenant_id

(* Requests on a connection are paced by client-side timers from the
   moment of establishment; the close marker follows the last one so it
   is processed in order. *)
let rec schedule_requests t conn ~remaining =
  let gap =
    max 1 (Sim_time.of_sec_f (Engine.Dist.sample t.profile.Profile.request_gap t.rng))
  in
  ignore
    (Sim.schedule_after (sim t) ~delay:gap (fun () ->
         if Lb.Conn.is_open conn then begin
           if remaining > 0 then begin
             let req = make_request t ~tenant_id:conn.Lb.Conn.tenant_id in
             if Lb.Device.send t.device conn req then t.sent <- t.sent + 1;
             if remaining > 1 then schedule_requests t conn ~remaining:(remaining - 1)
             else Lb.Device.close_conn t.device conn
           end
         end))

let rec open_conn t ~reconnected =
  t.opened <- t.opened + 1;
  let tenant = t.pick_tenant () in
  let n_requests =
    max 1
      (int_of_float
         (Float.round (Engine.Dist.sample t.profile.Profile.requests_per_conn t.rng)))
  in
  let events =
    {
      Lb.Device.null_conn_events with
      established = (fun conn -> schedule_requests t conn ~remaining:n_requests);
      reset =
        (fun _conn ->
          if t.reconnect_on_reset && (not reconnected) && t.running then
            open_conn t ~reconnected:true);
    }
  in
  Lb.Device.connect t.device ~tenant ~events

let rec arrival_loop t =
  if t.running then begin
    open_conn t ~reconnected:false;
    let gap = Engine.Dist.sample t.arrival_gap t.rng in
    ignore
      (Sim.schedule_after (sim t) ~delay:(max 1 (Sim_time.of_sec_f gap)) (fun () ->
           arrival_loop t))
  end

let start ~device ~profile ~rng ?(reconnect_on_reset = false) () =
  if profile.Profile.cps <= 0.0 then invalid_arg "Driver.start: cps must be positive";
  let t =
    {
      device;
      profile;
      rng;
      reconnect_on_reset;
      pick_tenant =
        Profile.tenant_picker profile
          ~tenants:(Array.length (Lb.Device.tenants device))
          rng;
      pick_op = Profile.op_picker profile rng;
      arrival_gap = Engine.Dist.exponential ~mean:(1.0 /. profile.Profile.cps);
      running = true;
      opened = 0;
      sent = 0;
    }
  in
  let first = Engine.Dist.sample t.arrival_gap rng in
  ignore
    (Sim.schedule_after (sim t) ~delay:(max 1 (Sim_time.of_sec_f first)) (fun () ->
         arrival_loop t));
  t

type report = {
  label : string;
  avg_ms : float;
  p50_ms : float;
  p99_ms : float;
  throughput_krps : float;
  completed : int;
  drops : int;
  resets : int;
  duration_s : float;
}

let run ~device ~profile ~rng ~warmup ~measure ?(reconnect_on_reset = false) () =
  let sim = Lb.Device.sim device in
  Lb.Device.start device;
  let driver = start ~device ~profile ~rng ~reconnect_on_reset () in
  Sim.run_until sim ~limit:(Sim_time.add (Sim.now sim) warmup);
  Lb.Device.reset_measurements device;
  let measure_started = Sim.now sim in
  Sim.run_until sim ~limit:(Sim_time.add measure_started measure);
  stop driver;
  let elapsed = Sim_time.to_sec_f (Sim_time.sub (Sim.now sim) measure_started) in
  let hist = Lb.Device.latency_hist device in
  {
    label = profile.Profile.name;
    avg_ms = Stats.Histogram.mean hist /. 1e6;
    p50_ms = Stats.Histogram.percentile hist 50.0 /. 1e6;
    p99_ms = Stats.Histogram.percentile hist 99.0 /. 1e6;
    throughput_krps =
      float_of_int (Lb.Device.completed device) /. elapsed /. 1000.0;
    completed = Lb.Device.completed device;
    drops = Lb.Device.dropped device;
    resets = Lb.Device.conns_reset device;
    duration_s = elapsed;
  }
