(** Closure-compiling JIT: the one executor of verified eBPF bytecode.

    An instruction-stepping interpreter pays three per-packet costs
    that a per-SYN dispatch path cannot afford: it allocates fresh
    register and stack arrays on every run, it re-dispatches on the
    instruction constructor at every step, and every 64-bit ALU result
    is boxed on its way into the register file.  This module removes
    all three at attach time: [compile] lowers a {!Ebpf_vm.verified}
    program once into a graph of OCaml closures — one closure per
    instruction, each capturing its operands, its certificate verdict,
    and its successor(s) directly — backed by preallocated
    [Bigarray]-of-int64 register/stack scratch that is reused across
    invocations, so a steady-state [exec] performs {e zero} minor-heap
    allocation.

    Compilation is certificate-directed: a site the {!Verifier} proved
    safe is compiled without its dynamic check, a residual site keeps
    the check armed (and a firing check makes the program fall back).
    Straight-line code and forward jumps call their successor closures
    directly; backward jumps (the verifier admits bounded loops) go
    through one cell of indirection tied after the reverse-order
    compile.

    Outcomes and cycle counts are bit-identical to the test suite's
    checked reference interpreter, which keeps every check armed, on
    every verified program — the qcheck differential suite pins this on
    random certified bytecode. *)

type t
(** A compiled program plus its private execution scratch.  A [t] is
    single-threaded by construction (it owns mutable scratch); compile
    one per attachment point, as the kernel JITs one program per
    attach. *)

val compile : Ebpf_vm.verified -> t
(** Close the bytecode over its certificate.  O(insns), allocates all
    execution scratch up front. *)

val exec : t -> flow_hash:int -> dst_port:int -> int
(** Run the program on one packet without allocating: the result is
    the raw exit code ({!Ebpf_vm.pass_code} = 1 for a successful
    selection, 0 for fallback — including any runtime fault — 2 for
    drop, and 3 for an in-kernel splice redirect).  After a return of
    1, {!selected} holds the chosen socket; after a 3, {!redirected}
    holds the sockmap entry and {!copy_len} the accepted copy length;
    {!last_cycles} always holds the cycle estimate of the run.  Takes
    the context as two immediate ints precisely so callers need not
    build an {!Ebpf.ctx} record per packet. *)

val selected : t -> Socket.t option
(** Socket chosen by the last [exec] ([None] unless it returned 1).
    Returns the sockarray's own option cell — no allocation. *)

val redirected : t -> Ebpf_maps.Sockmap.entry option
(** Sockmap entry the last [exec] redirected to ([None] unless it
    returned 3).  Returns the sockmap's own option cell — no
    allocation. *)

val copy_len : t -> int
(** Payload bytes the last redirect asked to copy up to userspace
    (0 unless [exec] returned 3). *)

val last_cycles : t -> int
(** Cycle estimate of the last [exec]: instructions executed, helper
    calls costing 4 extra — the same accounting as the test suite's
    checked reference interpreter. *)
