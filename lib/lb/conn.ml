type state = Established | Closed | Reset

type t = {
  id : int;
  fd : int;
  tuple : Netsim.Addr.four_tuple;
  flow_hash : int;
  tenant_id : int;
  worker_id : int;
  mutable state : state;
  inbox : Request.t Queue.t;
  mutable requests_done : int;
}

let make ~id ~fd ~tuple ~flow_hash ~tenant_id ~worker_id =
  {
    id;
    fd;
    tuple;
    flow_hash;
    tenant_id;
    worker_id;
    state = Established;
    inbox = Queue.create ();
    requests_done = 0;
  }

let deliver t req ~now =
  if t.state <> Established then false
  else begin
    req.Request.arrival <- now;
    Queue.push req t.inbox;
    true
  end

let queued t = Queue.length t.inbox
let pop t = Queue.take t.inbox
let is_open t = t.state = Established
