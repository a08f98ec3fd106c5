(** L4 load balancer front stage.

    Per Fig. 1, before traffic reaches the L7 LB the L4 LB decapsulates
    the VXLAN header and NATs each tenant's port-80/443 traffic to a
    distinct destination port, so that the L7 LB can devote one
    listening port (and its accept queue) to each tenant. *)

type t

val create : Tenant.t array -> t
(** Build the NAT table from the tenant population; tenants are keyed
    by VNI.  @raise Invalid_argument on duplicate VNIs. *)

val process : t -> Packet.t -> (Packet.t * Tenant.t) option
(** Decapsulate and rewrite the destination port.  [None] if the
    packet's VNI (or, for bare packets, destination port) matches no
    tenant — such traffic is dropped. *)
