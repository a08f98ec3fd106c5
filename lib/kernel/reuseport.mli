(** Reuseport socket group.

    All dedicated sockets bound to one port with [SO_REUSEPORT] form a
    group; the kernel picks one socket per incoming SYN.  Default
    selection is stateless hashing —
    [socks\[reciprocal_scale(flow_hash, n)\]] — which balances new
    connections in expectation but is blind to worker state: a hung
    worker's socket keeps receiving its share until something removes
    it (§2.2).  A verified eBPF program attached via
    [SO_ATTACH_REUSEPORT_EBPF] overrides the default; if the program
    falls back or faults, the default hash selection applies — the
    safety net Hermes relies on when too few workers pass the coarse
    filter.

    The fallback is rank-select over an incrementally maintained
    live-member bitmap: bind/unbind (cold) keep a dense prefix of the
    member sockets in slot order, so the per-packet path is a popcount
    and one indexed load — no per-packet list is built, and the
    steady-state path does not allocate. *)

type t

val create : port:Netsim.Addr.port -> slots:int -> t
(** A group with capacity for [slots] member sockets (slot = worker
    id).  @raise Invalid_argument unless [slots] is in 1..64 — slots
    index bits of the group's 64-bit live bitmap, exactly as worker
    ids index the scheduler's dispatch bitmap. *)

val slots : t -> int

val bind : t -> slot:int -> socket:Socket.t -> unit
(** Add a member socket.  @raise Invalid_argument if the slot is taken
    or out of range, or the socket's port differs from the group's. *)

val unbind : t -> slot:int -> unit
(** Remove a member (socket closed, e.g. worker process exited). *)

val member : t -> slot:int -> Socket.t option

val live_bitmap : t -> int64
[@@test_only]
(** Bit [i] set iff slot [i] is bound. *)

val slot_of_socket : t -> Socket.t -> int
[@@test_only]
(** Member slot of a bound socket, by a scan of the members; [-1] if
    not a member. *)

val attach_ebpf : t -> Ebpf.verified -> unit
(** Attach / replace the selection program, run in the compiled form
    {!Ebpf.verify_exn} built. *)

val attach : t -> name:string -> Ebpf_vm.program -> (unit, Verifier.error) result
(** [SO_ATTACH_REUSEPORT_EBPF] proper: run raw bytecode through
    {!Verifier.verify} (emitting the attach-time
    {!Trace.Verifier_verdict}) and install the certified program,
    closure-compiled by {!Ebpf_jit}; on rejection nothing is
    attached. *)

(** {1 Fault injection} *)

val set_prog_fault : t -> bool -> unit
(** [set_prog_fault t true] makes every subsequent {!select} behave as
    if the attached program faulted at run time: selection goes
    straight to the rank-select hash fallback, exactly the degraded
    path the kernel takes when [SO_ATTACH_REUSEPORT_EBPF] fails or the
    program traps (§6's safety net).  The program stays attached;
    [set_prog_fault t false] restores it.  A no-op while no program is
    attached. *)

val select : t -> flow_hash:int -> Socket.t option
(** Socket selection for one SYN.  [None] when the group is empty or
    the program dropped the packet.  Whichever engine runs the
    attached program, its verdict takes one path: the stats below, and
    under tracing one {!Trace.Prog_run} stamped with the program's
    name, then the [Rp_select] / [Rp_drop] record. *)

type stats = {
  selected_by_prog : int;
  selected_by_hash : int;
  dropped : int;
  prog_cycles : int; (** cumulative eBPF cycles — Table 5's dispatcher row *)
  prog_cycles_select : int;
      (** portion of [prog_cycles] spent on runs that selected *)
  prog_cycles_fallback : int;
      (** …on runs that fell back (incl. faults) to hash selection *)
  prog_cycles_drop : int;  (** …on runs that dropped the packet *)
}

val stats : t -> stats
