(** Multi-tenant model.

    In the Alibaba Cloud deployment (Fig. 1), each tenant's HTTP/HTTPS
    traffic is tagged with a VXLAN Network Identifier at the cloud
    gateway and mapped to a dedicated destination port at the L4 LB, so
    the L7 LB can bind one listening socket per tenant. *)

type t = {
  id : int;
  name : string;
  vni : int; (** VXLAN network identifier set by the cloud gateway. *)
  dport : Addr.port; (** Dport assigned by the L4 LB's NAT stage. *)
}

val population : n:int -> base_dport:Addr.port -> t array
(** [population ~n ~base_dport] builds [n] tenants with consecutive
    VNIs and Dports — the standard fixture for multi-tenant
    experiments. *)

val pp : Format.formatter -> t -> unit
