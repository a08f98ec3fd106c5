(** Path-sensitive abstract interpreter over {!Ebpf_vm} bytecode.

    This is the repo's model of the in-kernel eBPF verifier's value
    tracking: every live register (and stack slot) carries an abstract
    value made of a signed interval, an unsigned interval, and a
    known-bits {e tnum} (value/mask pair), the three views kept
    mutually consistent exactly as [__reg_deduce_bounds] does.
    Conditional jumps refine both outcomes — the taken and fall-through
    states each narrow the tested registers — and statically-dead
    branches are not explored.

    Exploration is a depth-first walk over paths (no joins), pruned by
    state subsumption: a state already covered by a previously
    {e completed} exploration of the same instruction is not re-walked.
    Backward jumps are therefore admitted — a loop whose bound the
    domain can express is unrolled abstractly until its exit branch
    kills the backedge — while a loop the domain cannot bound keeps
    producing fresh states until the per-program instruction-visit
    budget trips, yielding [Budget_exhausted] (the kernel's
    one-million-insn complexity limit, in miniature).

    The verdict is a typed certificate: for each potentially-faulting
    operation (shift amounts, [Mod] divisors, [Map_lookup]/[Sk_select]
    indices, stack slots) the verifier records {e proved-safe} or
    {e needs-runtime-check}.  {!Ebpf_jit.compile} consumes it to
    compile the discharged checks out. *)

type check_kind =
  | Shift_amount  (** [Lsh]/[Rsh] amount in 0..63 *)
  | Mod_divisor  (** [Mod] divisor nonzero *)
  | Map_index  (** [Map_lookup] key within the array map *)
  | Sk_index  (** [Sk_select] index within the sockarray *)
  | Stack_slot  (** [St_stack]/[Ld_stack] slot within the stack *)
  | Sockmap_key  (** [Sk_redirect] key within the sockmap *)
  | Copy_len  (** [Sk_copy] length in 0..{!Ebpf.copy_limit} *)

type check_status = Proved | Runtime_check

type site = { pc : int; kind : check_kind; status : check_status }
(** One potentially-faulting operation.  An instruction appears once;
    [status = Runtime_check] means some visited path could not prove it
    and the interpreter keeps the dynamic check armed there. *)

type error =
  | Empty_program
  | Program_too_long of { len : int; limit : int }
  | Invalid_shift_imm of { pc : int; amount : int64 }
  | Const_mod_zero of { pc : int }
  | Stack_slot_oob of { pc : int; slot : int }
  | Jump_out_of_range of { pc : int; target : int }
  | Falls_off_end of { pc : int }
  | Uninit_register of { pc : int; reg : Ebpf_vm.reg }
  | Uninit_stack of { pc : int; slot : int }
  | Budget_exhausted of { pc : int; visited : int; budget : int }
      (** The abstract walk could not cover all paths within the
          instruction-visit budget — e.g. a loop with a bound the
          domain cannot decrease. *)
  | Compile_failed of string  (** {!compile_and_verify} only *)

val error_to_string : error -> string

type report = {
  insns : int;  (** program length *)
  visited : int;  (** abstract instruction visits spent *)
  backward_edges : int;  (** jumps with a negative offset *)
  sites : site list;  (** all potentially-faulting ops, by pc *)
  proved : int;  (** sites with [status = Proved] *)
  residual : int;  (** sites with [status = Runtime_check] *)
  states : string array;
      (** with [~collect_states:true]: per-instruction rendering of the
          join of every abstract state seen on entry (empty strings
          otherwise; "unreached" for dead code) *)
}

val verify :
  ?name:string ->
  ?budget:int ->
  ?collect_states:bool ->
  Ebpf_vm.program ->
  (Ebpf_vm.verified * report, error) result
(** Check [program] and build its certificate.  [budget] bounds the
    instruction visits (default 1,000,000 — the kernel's
    [BPF_COMPLEXITY_LIMIT_INSNS]).  Emits a {!Trace.Verifier_verdict}
    event (backend ["bytecode"]) on both acceptance and rejection;
    [name] labels it. *)

val verify_exn : ?name:string -> ?budget:int -> Ebpf_vm.program -> Ebpf_vm.verified
(** @raise Invalid_argument on rejection. *)

val compile_and_verify :
  ?budget:int -> Ebpf.prog -> (Ebpf_vm.verified, error) result
(** {!Ebpf_vm.compile} followed by {!verify} under the program's own
    name; compiler failures surface as [Compile_failed]. *)
