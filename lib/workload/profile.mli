(** Traffic profiles.

    A profile captures everything the generators need to emit a tenant
    mix: the connection arrival rate (CPS), how many requests ride each
    connection and at what spacing, request sizes, LB processing times,
    the operation mix, and the tenant-popularity skew.  Table 3's four
    cases and Table 1's four regions are instances. *)

type t = {
  name : string;
  cps : float;  (** new connections per second (Poisson arrivals) *)
  requests_per_conn : Engine.Dist.t;  (** >= 1; rounded to an int *)
  request_gap : Engine.Dist.t;
      (** seconds between successive request arrivals on a connection
          (open loop: clients push on a timer, regardless of LB
          progress) *)
  request_size : Engine.Dist.t;  (** bytes *)
  processing_time : Engine.Dist.t;  (** seconds of LB CPU per request *)
  op_mix : (float * Lb.Request.op) list;  (** weighted op classes *)
  tenant_skew : float;
      (** Zipf exponent over the tenant population; 0 = uniform *)
}

val scale_rate : t -> float -> t
(** Multiply the connection arrival rate — the paper's 2x / 3x replay
    ("medium" and "heavy"). *)

val op_picker : t -> Engine.Rng.t -> unit -> Lb.Request.op
(** Op-class picker over [op_mix], its weight and op tables built once;
    each pick is one {!Engine.Dist.categorical} draw. *)

val tenant_picker : t -> tenants:int -> Engine.Rng.t -> unit -> int
(** Zipf-skewed tenant picker over [tenants] tenants (uniform when
    [tenant_skew] is 0), its Zipf table built once. *)
