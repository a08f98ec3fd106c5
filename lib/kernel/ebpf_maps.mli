(** eBPF maps.

    Maps are the kernel/userspace shared state of the Hermes control
    loop: a one-element [BPF_MAP_TYPE_ARRAY] carries the 64-bit worker
    bitmap ({i M_Sel} in Algo 1/2), and a
    [BPF_MAP_TYPE_REUSEPORT_SOCKARRAY] maps worker ids to their
    listening sockets ({i M_socket}).  On real hardware a userspace
    update and a kernel-side lookup race without a lock and never see
    a torn value, the property §5.4 relies on; the simulator runs on
    one domain, so the cells are plain array slots.

    Userspace bitmap pushes go through {!Syscall}, each emitting a
    [Map_update] trace record; Table 5 charges the system calls
    separately from the in-kernel dispatcher. *)

module Array_map : sig
  type t
  (** Fixed-size array of 64-bit values, all slots initialized to 0. *)

  val create : name:string -> size:int -> t
  val name : t -> string
  val size : t -> int

  val lookup : t -> int -> int64
  (** Kernel-side [bpf_map_lookup_elem].  @raise Invalid_argument on an
      out-of-range key (the verifier would have rejected the access). *)

  val unsafe_lookup : t -> int -> int64
  (** [lookup] without the explicit range check, for accesses a
      {!Verifier} certificate proved in bounds.  OCaml's array bounds
      check still applies as a last-resort backstop. *)

  val kernel_update : t -> int -> int64 -> unit
  (** In-kernel store (not a syscall). *)
end

module Sockarray : sig
  type t
  (** Worker-id-indexed socket references. *)

  val create : name:string -> size:int -> t
  val name : t -> string
  val size : t -> int
  val set : t -> int -> Socket.t -> unit
  val clear : t -> int -> unit
  val get : t -> int -> Socket.t option

  val unsafe_get : t -> int -> Socket.t option
  (** [get] without the explicit range check, for accesses a
      {!Verifier} certificate proved in bounds. *)
end

module Sockmap : sig
  type entry = { conn : int; target : int }
  (** A spliced connection: its id and the worker the kernel forwards
      its bytes to. *)

  type t
  (** [BPF_MAP_TYPE_SOCKMAP] in miniature: flow-hash-keyed entries the
      redirect helper consults for established-connection splicing. *)

  val create : name:string -> size:int -> t
  val name : t -> string
  val size : t -> int
  val set : t -> int -> conn:int -> target:int -> unit
  (** Userspace sockmap attach ([BPF_MAP_UPDATE_ELEM] on a sockmap). *)

  val clear : t -> int -> unit
  (** Userspace sockmap teardown ([BPF_MAP_DELETE_ELEM]). *)

  val get : t -> int -> entry option

  val unsafe_get : t -> int -> entry option
  (** [get] without the explicit range check, for accesses a
      {!Verifier} certificate proved in bounds. *)
end

module Syscall : sig
  val update_elem : Array_map.t -> int -> int64 -> unit
  (** Userspace [bpf(BPF_MAP_UPDATE_ELEM)]: performs the store and
      emits a [Map_update] trace record. *)
end
