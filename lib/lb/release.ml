module Sim = Engine.Sim
module Sim_time = Engine.Sim_time

type outcome = {
  workers_released : int;
  drained_gracefully : int;
  reset_at_deadline : int;
  duration : Sim_time.t;
}

type t = {
  device : Device.t;
  grace : Sim_time.t;
  poll : Sim_time.t;
  on_done : outcome -> unit;
  started : Sim_time.t;
  mutable next : int;
  mutable active : int option;
  mutable drained : int;
  mutable forced : int;
}


let finish t =
  t.active <- None;
  t.on_done
    {
      workers_released = t.next;
      drained_gracefully = t.drained;
      reset_at_deadline = t.forced;
      duration = Sim_time.sub (Sim.now (Device.sim t.device)) t.started;
    }

let rec release_next t =
  if t.next >= Device.worker_count t.device then finish t
  else begin
    let w = t.next in
    t.active <- Some w;
    let conns_at_drain = Worker.conn_count (Device.worker t.device w) in
    (* Step 1: out of rotation — no SYN can reach it any more. *)
    Device.isolate_worker t.device w;
    let deadline = Sim_time.add (Sim.now (Device.sim t.device)) t.grace in
    wait_drain t w ~conns_at_drain ~deadline
  end

and wait_drain t w ~conns_at_drain ~deadline =
  let sim = Device.sim t.device in
  let worker = Device.worker t.device w in
  let live = Worker.conn_count worker in
  if live = 0 then begin
    t.drained <- t.drained + conns_at_drain;
    restart t w
  end
  else if Sim.now sim >= deadline then begin
    (* Step 2b: grace expired — RST the stragglers so their clients
       reconnect onto workers already in rotation. *)
    t.drained <- t.drained + (conns_at_drain - live);
    t.forced <- t.forced + live;
    List.iter (Worker.reset_connection worker) (Worker.conns worker);
    restart t w
  end
  else
    ignore
      (Sim.schedule_after sim ~delay:t.poll (fun () ->
           wait_drain t w ~conns_at_drain ~deadline))

and restart t w =
  (* Step 3: the new binary comes up and re-binds fresh sockets. *)
  Worker.crash (Device.worker t.device w);
  Device.recover_worker t.device w;
  t.next <- t.next + 1;
  t.active <- None;
  release_next t

let start ~device ?(grace = Sim_time.sec 2) ?(poll = Sim_time.ms 50) ~on_done () =
  (match Device.device_mode device with
  | Device.Reuseport | Device.Hermes _ | Device.Splice -> ()
  | Device.Exclusive | Device.Epoll_rr | Device.Wake_all | Device.Io_uring_fifo ->
    invalid_arg "Release.start: rolling release needs dedicated sockets");
  let t =
    {
      device;
      grace;
      poll;
      on_done;
      started = Sim.now (Device.sim device);
      next = 0;
      active = None;
      drained = 0;
      forced = 0;
    }
  in
  release_next t;
  t
