(** L7 request model.

    A request is one application-layer unit of work arriving on an
    established connection: an HTTP request to route, a TLS handshake
    or record, a response to compress, a WebSocket frame, or a protocol
    translation — the task classes §2.1 lists.  Its CPU cost at the LB
    is fixed by the workload generator (processing-time regimes are the
    defining parameter of the Table 3 cases), and a [Close] marker ends
    the connection. *)

type op =
  | Plain_proxy  (** header parse + data copy *)
  | Ssl_handshake
  | Ssl_record  (** decrypt/encrypt of one record *)
  | Compress
  | Regex_route  (** CPU-heavy user routing policies *)
  | Websocket_frame
  | Protocol_translate  (** e.g. QUIC -> HTTP/1.1 *)

type kind = Work of op | Close

type t = {
  id : int;
  kind : kind;
  size : int;  (** request payload bytes *)
  cost : Engine.Sim_time.t;  (** CPU time at the LB worker *)
  tenant_id : int;
  mutable arrival : Engine.Sim_time.t;
      (** set when the request is delivered to the connection *)
}

val make :
  id:int -> op:op -> size:int -> cost:Engine.Sim_time.t -> tenant_id:int -> t
(** @raise Invalid_argument on negative size or cost. *)

val close_marker : id:int -> tenant_id:int -> t
(** A [Close] request carrying the small teardown cost. *)

val is_close : t -> bool


val default_cost : op -> size:int -> Engine.Sim_time.t
(** A reasonable per-op cost when a generator does not impose its own
    processing-time distribution: a base cost per operation class plus
    a size-proportional term. *)
