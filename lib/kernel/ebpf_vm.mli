(** Register-level eBPF: bytecode, certificates, and the checked
    reference interpreter.

    {!Ebpf} gives Hermes a convenient expression language; this module
    grounds it.  [compile] lowers an expression program to a
    register-based instruction sequence in the image of the real ISA —
    64-bit ALU ops, conditional jumps, helper calls, a ctx load — with
    the bit-twiddling expanded {e inline}: [Popcount] becomes the
    ~15-instruction SWAR Hamming weight and [Find_nth_set] an unrolled
    six-level binary search over prefix popcounts, exactly how such
    logic ships inside real [SO_ATTACH_REUSEPORT_EBPF] programs (no
    loops, no helpers beyond the kernel's own).  Computed [Select]
    indices are bounds-guarded by explicit compare-and-branch
    sequences, the idiom the in-kernel verifier demands before it
    admits an array access.

    Static checking lives in {!Verifier}, a path-sensitive abstract
    interpreter.  Its verdict is a {!verified} program carrying a
    fault-site {e certificate}: per instruction, whether the dynamic
    safety checks (shift range, mod-by-zero, map/sockarray index) were
    proved unnecessary.  Verified bytecode has one executor, the
    closure JIT of {!Ebpf_jit}, which compiles out every check the
    certificate discharges.  The test suite keeps a checked reference
    interpreter that ignores the certificate and keeps every check
    armed; its differential property tests check that compiled
    programs agree with the {!Ebpf} evaluator, and the JIT with that
    interpreter, on random inputs. *)

type reg = R0 | R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9

val int_of_reg : reg -> int

type alu = Add | Sub | Mul | And | Or | Xor | Lsh | Rsh | Mod

type jmp = Jeq | Jne | Jlt | Jle | Jgt | Jge

type helper =
  | Map_lookup of Ebpf_maps.Array_map.t
      (** key in r1; value to r0; faults on a bad key *)
  | Sk_select of Ebpf_maps.Sockarray.t
      (** index in r1; selects the socket (side effect), r0 := 0;
          faults on an empty or out-of-range slot *)
  | Reciprocal_scale  (** hash in r1, n in r2; result to r0 *)
  | Sk_redirect of Ebpf_maps.Sockmap.t
      (** key in r1; loads the sockmap entry as the redirect target
          (side effect), r0 := 1 if the slot is occupied, 0 otherwise;
          faults on an out-of-range key *)
  | Sk_copy
      (** requested copy length in r1 (bytes of payload pulled up to
          userspace alongside the redirect); r0 := r1; faults outside
          0..{!Ebpf.copy_limit} *)

type insn =
  | Mov_imm of reg * int64
  | Mov_reg of reg * reg  (** dst, src *)
  | Alu_imm of alu * reg * int64
  | Alu_reg of alu * reg * reg  (** dst := dst op src *)
  | Jmp_imm of jmp * reg * int64 * int
      (** if (reg cmp imm) skip the next [off] instructions; [off] may
          be negative — the verifier admits bounded backward jumps *)
  | Jmp_reg of jmp * reg * reg * int
  | Ja of int  (** unconditional skip *)
  | Ld_flow_hash of reg
  | Ld_dst_port of reg
  | St_stack of int * reg
      (** spill to a stack slot — Let-bound values must survive helper
          calls (which clobber r1-r5, as in the real ABI) *)
  | Ld_stack of reg * int
  | Call of helper
  | Exit  (** return r0: 1 = SK_PASS (use selection), 0 = fall back,
              2 = drop, 3 = in-kernel redirect (splice) *)

val pass_code : int64
val drop_code : int64
val redirect_code : int64

type program = insn array

val max_insns : int
(** Upper bound on program length (kernel-style). *)

val max_stack_slots : int
(** Stack slots available to a program (64, i.e. the real 512-byte
    BPF stack in 8-byte words). *)

val disassemble : program -> string

val compile : Ebpf.prog -> (program, string) result
(** Lower an expression program.  Fails only when the expression needs
    more scratch registers or stack slots than the ISA provides. *)

type verified
(** A program plus the fault-site certificate {!Verifier} produced for
    it. *)

val certify : program -> proved:bool array -> verified
(** Package a program with its certificate; [proved.(pc)] asserts the
    dynamic safety checks of instruction [pc] can never fire.  This is
    {!Verifier}'s constructor — calling it with an unsound certificate
    makes the JIT skip a needed check, so a run can diverge from the
    checked reference interpreter. *)

val insn_count : verified -> int

val program_of : verified -> program
(** A copy of the underlying bytecode. *)

val certificate : verified -> bool array
(** A copy of the fault-site certificate: [.(pc)] means the dynamic
    safety checks of instruction [pc] were discharged statically.
    The closure JIT of {!Ebpf_jit} consumes this to compile those
    checks out. *)

val fully_proved : verified -> bool
(** Every potentially-faulting site was discharged: the JIT runs the
    program with no armed check. *)
