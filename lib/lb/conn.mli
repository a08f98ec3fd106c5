(** An accepted L7 connection, owned by exactly one worker.

    Modern L7 LBs pin a connection to the core that accepted it
    (Appendix C): once established it cannot migrate, so the inbox of
    requests the workload pushes onto it is drained only by its owner's
    event loop.  [inflight] tracks units already announced to epoll but
    not yet handled, so a close can account for what is discarded. *)

type state = Established | Closed | Reset

type t = {
  id : int;  (** the pending_conn sequence number *)
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

val make :
  id:int ->
  fd:int ->
  tuple:Netsim.Addr.four_tuple ->
  tenant_id:int ->
  worker_id:int ->
  established:Engine.Sim_time.t ->
  t

val deliver : t -> Request.t -> now:Engine.Sim_time.t -> bool
(** Append a request (stamping its arrival time) if the connection is
    still established; returns whether it was taken. *)

val queued : t -> int
(** Requests waiting in the inbox. *)

val pop : t -> Request.t
(** Pop the oldest request from the inbox (one step of the epoll
    handler's drain).  @raise Queue.Empty if the inbox is empty. *)

val is_open : t -> bool
