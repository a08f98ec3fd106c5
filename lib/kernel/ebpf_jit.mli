(** The bytecode front end: verified eBPF bytecode into {!Ebpf_code},
    the one compiled form every program runs in.

    An instruction-stepping interpreter pays three per-packet costs
    that a per-SYN dispatch path cannot afford: it allocates fresh
    register and stack arrays on every run, it re-dispatches on the
    instruction constructor at every step, and every 64-bit ALU result
    is boxed on its way into the register file.  [compile] removes all
    three at attach time: it lowers a {!Ebpf_vm.verified} program once
    into one {!Ebpf_code} step per instruction over the program's own
    unboxed register file, with R0–R9, the stack and each immediate at
    fixed slots, so a steady-state run performs {e zero} minor-heap
    allocation.

    Compilation is certificate-directed: a site the {!Verifier} proved
    safe is compiled without its dynamic check, a residual site keeps
    the check armed (and a firing check makes the program fall back).
    Straight-line code and forward jumps call their successor steps
    directly; backward jumps (the verifier admits bounded loops) go
    through one cell of indirection tied after the reverse-order
    compile.

    Outcomes and cycle counts (1 per instruction, 5 per helper call)
    are bit-identical to the test suite's checked reference
    interpreter, which keeps every check armed, on every verified
    program — the qcheck differential suite pins this on random
    certified bytecode. *)

val compile : Ebpf_vm.verified -> Ebpf_code.t
(** Close the bytecode over its certificate.  O(insns); allocates the
    register file up front.  Compile one per attachment point, as the
    kernel JITs one program per attach. *)
