type pending_conn = {
  seq : int;  (* device-wide connection sequence number *)
  tuple : Netsim.Addr.four_tuple;
  flow_hash : int;
  tenant_id : int;
}

type t = {
  sock_id : int;
  listen_port : Netsim.Addr.port;
  mutable backlog : int;
  queue : pending_conn Queue.t;
  mutable closed : bool;
  mutable ready : unit -> unit;
}

let next_id = ref 0

let create_listen ~port ~backlog () =
  if backlog <= 0 then invalid_arg "Socket.create_listen: backlog must be positive";
  incr next_id;
  {
    sock_id = !next_id;
    listen_port = port;
    backlog;
    queue = Queue.create ();
    closed = false;
    ready = ignore;
  }

let id t = t.sock_id
let port t = t.listen_port
let set_ready t f = t.ready <- f

let set_backlog t n =
  if n <= 0 then invalid_arg "Socket.set_backlog: backlog must be positive";
  t.backlog <- n

let push t conn =
  if t.closed || Queue.length t.queue >= t.backlog then `Dropped
  else begin
    Queue.push conn t.queue;
    t.ready ();
    `Queued
  end

let accept t = Queue.take_opt t.queue

let backlog_len t = Queue.length t.queue

let close t =
  t.closed <- true;
  let drained = List.of_seq (Queue.to_seq t.queue) in
  Queue.clear t.queue;
  drained
