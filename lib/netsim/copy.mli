(** Data-movement cycle costs for established-connection forwarding.

    The simulator's flows carried only events until the splice mode
    landed; this module prices the {e bytes}.  Two data paths exist
    for an established connection's payload:

    - {b userspace proxy}: every chunk crosses the kernel/user
      boundary twice ([read] from the client socket, [write] to the
      backend socket), paying two {!syscall_cycles} plus two full
      copies ({!user_copy_cycles});
    - {b in-kernel splice}: a sockmap redirect moves page references
      between sockets without copying payload ({!splice_cycles}), and
      only the bytes userspace asked to inspect are copied up
      ({!selective_copy_cycles}) — the XLB redirect + Libra selective
      copy combination.

    All results are CPU cycles; [Lb.Cost.cycles_to_time] converts to
    simulated time at the fixed 3 GHz clock.  Table-5-style
    experiments charge these to the kernel component, next to the
    dispatch program's own cycle estimate. *)

val syscall_cycles : int
(** Entry/exit cost of one syscall (600). *)

val user_copy_cycles : bytes:int -> int
(** One kernel<->user copy of [bytes].  @raise Invalid_argument on a
    negative count (all functions below too). *)

val splice_cycles : bytes:int -> int
(** In-kernel redirect of [bytes]: no payload copy at all. *)

val selective_copy_cycles : bytes:int -> int
(** Copying [bytes] of a spliced chunk up for userspace inspection. *)
