(** Network addressing primitives.

    IPv4 addresses and ports are plain integers; the interesting object
    is the connection 4-tuple, which the kernel hashes for both RSS and
    reuseport socket selection. *)

type ip = int
(** IPv4 address as a 32-bit value in an int. *)

type port = int

val ip_of_string : string -> ip
(** Parse dotted-quad notation.  @raise Invalid_argument on malformed
    input. *)

type four_tuple = {
  src_ip : ip;
  src_port : port;
  dst_ip : ip;
  dst_port : port;
}

val pp_four_tuple : Format.formatter -> four_tuple -> unit
(** [src_ip:src_port -> dst_ip:dst_port], addresses in dotted-quad. *)

val https_port : port
(** 443 *)
