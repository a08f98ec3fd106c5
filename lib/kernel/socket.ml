type pending_conn = {
  seq : int;  (* device-wide connection sequence number *)
  tuple : Netsim.Addr.four_tuple;
  flow_hash : int;
  tenant_id : int;
  syn_time : Engine.Sim_time.t;
}

type t = {
  sock_id : int;
  listen_port : Netsim.Addr.port;
  mutable backlog : int;
  queue : pending_conn Queue.t;
  mutable dropped : int;
  mutable accepted : int;
  mutable closed : bool;
}

(* Fallback allocator only; callers that care about determinism
   across simulation shards (Lb.Device) pass their own [?id] so no
   cross-domain shared counter is involved. *)
let next_id = Atomic.make 0

let create_listen ?id ~port ~backlog () =
  if backlog <= 0 then invalid_arg "Socket.create_listen: backlog must be positive";
  let sock_id =
    match id with Some i -> i | None -> Atomic.fetch_and_add next_id 1 + 1
  in
  {
    sock_id;
    listen_port = port;
    backlog;
    queue = Queue.create ();
    dropped = 0;
    accepted = 0;
    closed = false;
  }

let id t = t.sock_id
let port t = t.listen_port
let backlog t = t.backlog

let set_backlog t n =
  if n <= 0 then invalid_arg "Socket.set_backlog: backlog must be positive";
  t.backlog <- n

let push t conn =
  if t.closed || Queue.length t.queue >= t.backlog then begin
    t.dropped <- t.dropped + 1;
    `Dropped
  end
  else begin
    Queue.push conn t.queue;
    `Queued
  end

let accept t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some conn ->
    t.accepted <- t.accepted + 1;
    Some conn

let backlog_len t = Queue.length t.queue
let total_dropped t = t.dropped
let total_accepted t = t.accepted

let close t =
  t.closed <- true;
  let drained = List.of_seq (Queue.to_seq t.queue) in
  Queue.clear t.queue;
  drained

let is_closed t = t.closed
