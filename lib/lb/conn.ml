type state = Established | Closed | Reset

type t = {
  id : int;
  fd : int;
  tuple : Netsim.Addr.four_tuple;
  tenant_id : int;
  worker_id : int;
  established : Engine.Sim_time.t;
  mutable state : state;
  inbox : Request.t Queue.t;
  mutable inflight : int;
  mutable requests_done : int;
}

let make ~id ~fd ~tuple ~tenant_id ~worker_id ~established =
  {
    id;
    fd;
    tuple;
    tenant_id;
    worker_id;
    established;
    state = Established;
    inbox = Queue.create ();
    inflight = 0;
    requests_done = 0;
  }

let deliver t req ~now =
  if t.state <> Established then false
  else begin
    req.Request.arrival <- now;
    Queue.push req t.inbox;
    t.inflight <- t.inflight + 1;
    true
  end

let queued t = Queue.length t.inbox

let pop t =
  let req = Queue.take t.inbox in
  t.inflight <- t.inflight - 1;
  req

let is_open t = t.state = Established
