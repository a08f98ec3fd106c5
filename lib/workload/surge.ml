module Sim = Engine.Sim
module Sim_time = Engine.Sim_time

type t = {
  device : Lb.Device.t;
  mutable conns : Lb.Conn.t list;
  mutable live : int;
}

let establish ~device ~tenant ~count ~over =
  if count <= 0 then invalid_arg "Surge.establish: count must be positive";
  let t = { device; conns = []; live = 0 } in
  let sim = Lb.Device.sim device in
  let gap = max 1 (over / count) in
  for i = 0 to count - 1 do
    ignore
      (Sim.schedule_after sim ~delay:(i * gap) (fun () ->
           let events =
             {
               Lb.Device.null_conn_events with
               established =
                 (fun conn ->
                   t.conns <- conn :: t.conns;
                   t.live <- t.live + 1);
               closed = (fun _ -> t.live <- t.live - 1);
               reset = (fun _ -> t.live <- t.live - 1);
             }
           in
           Lb.Device.connect device ~tenant ~events))
  done;
  t

let established_count t = List.length t.conns

let burst t ~rng ~requests_per_conn ~cost ~size ~jitter =
  let sim = Lb.Device.sim t.device in
  List.iter
    (fun conn ->
      for _ = 1 to requests_per_conn do
        let delay =
          if jitter <= 0 then 0 else Engine.Rng.int rng (jitter + 1)
        in
        ignore
          (Sim.schedule_after sim ~delay (fun () ->
               if Lb.Conn.is_open conn then begin
                 let req =
                   Lb.Request.make ~id:(Lb.Device.fresh_id t.device)
                     ~op:Lb.Request.Websocket_frame ~size ~cost
                     ~tenant_id:conn.Lb.Conn.tenant_id
                 in
                 ignore (Lb.Device.send t.device conn req)
               end))
      done)
    t.conns

let teardown t =
  List.iter
    (fun conn ->
      if Lb.Conn.is_open conn then Lb.Device.close_conn t.device conn)
    t.conns
