(* The bytecode front end: verified instructions into the one compiled
   form, {!Ebpf_code}.

   R0-R9 and the 64 stack slots map to fixed slots of the register
   file, and each immediate gets a read-only slot of its own, so every
   instruction is one step over slots.  A context load is a move from
   the flow-hash or port slot.  Each instruction charges 1 cycle and a
   helper call 5, the checked interpreter's accounting, so the two are
   differential-testable on (outcome, cycles) pairs; a fault charges up
   to the faulting step.

   Steps are built in reverse program order, so fall-through and
   forward-jump successors are captured directly (a direct tail call at
   run time); backward jumps — the verifier admits bounded loops — go
   through one load of the [compiled] array, which is fully populated by
   the time anything runs. *)

module Code = Ebpf_code

let alu : Ebpf_vm.alu -> Code.op = function
  | Add -> Add
  | Sub -> Sub
  | Mul -> Mul
  | And -> And
  | Or -> Or
  | Xor -> Xor
  | Lsh -> Lsh
  | Rsh -> Rsh
  | Mod -> Mod

let cmp : Ebpf_vm.jmp -> Code.cmp = function
  | Jeq -> Eq
  | Jne -> Ne
  | Jlt -> Lt
  | Jle -> Le
  | Jgt -> Gt
  | Jge -> Ge

let helper : Ebpf_vm.helper -> Code.op = function
  | Map_lookup map -> Lookup map
  | Sk_select sa -> Select sa
  | Reciprocal_scale -> Recip
  | Sk_redirect map -> Redirect map
  | Sk_copy -> Copy

let compile (v : Ebpf_vm.verified) =
  let code = Ebpf_vm.program_of v in
  let proved = Ebpf_vm.certificate v in
  let len = Array.length code in
  let f = Code.file () in
  let regs = Array.init 10 (fun _ -> Code.reg f) in
  let stack = Array.init Ebpf_vm.max_stack_slots (fun _ -> Code.reg f) in
  let r x = regs.(Ebpf_vm.int_of_reg x) in
  (* Interpreter semantics for running off either end of the program:
     fault, with no cycle charged for the out-of-range pc. *)
  let compiled = Array.make (max len 1) Code.fault in
  let resolve ~pc target =
    if target < 0 || target >= len then Code.fault
    else if target > pc then compiled.(target) (* reverse order: ready *)
    else fun () -> (Array.unsafe_get compiled target) () (* backedge *)
  in
  for pc = len - 1 downto 0 do
    let next = if pc + 1 >= len then Code.fault else compiled.(pc + 1) in
    let step ?b op ~a ~dst = Code.step f ~proved:proved.(pc) op ~cost:1 ~a ?b ~dst next in
    compiled.(pc) <-
      (match code.(pc) with
      | Mov_imm (d, x) -> step Mov ~a:(Code.const f x) ~dst:(r d)
      | Mov_reg (d, s) -> step Mov ~a:(r s) ~dst:(r d)
      | Alu_imm (op, d, x) -> step (alu op) ~a:(r d) ~b:(Code.const f x) ~dst:(r d)
      | Alu_reg (op, d, s) -> step (alu op) ~a:(r d) ~b:(r s) ~dst:(r d)
      | Jmp_imm (op, a, x, off) ->
        Code.branch f (cmp op) ~cost:1 ~a:(r a) ~b:(Code.const f x)
          (resolve ~pc (pc + 1 + off)) next
      | Jmp_reg (op, a, b, off) ->
        Code.branch f (cmp op) ~cost:1 ~a:(r a) ~b:(r b) (resolve ~pc (pc + 1 + off)) next
      | Ja off -> Code.jump f ~cost:1 (resolve ~pc (pc + 1 + off))
      | Ld_flow_hash d -> step Mov ~a:Code.flow_hash ~dst:(r d)
      | Ld_dst_port d -> step Mov ~a:Code.dst_port ~dst:(r d)
      (* slots bounded by the structural verifier pass *)
      | St_stack (slot, s) -> step Mov ~a:(r s) ~dst:stack.(slot)
      | Ld_stack (d, slot) -> step Mov ~a:stack.(slot) ~dst:(r d)
      | Call h ->
        Code.step f ~proved:proved.(pc) (helper h) ~cost:5 ~a:(r R1) ~b:(r R2) ~dst:(r R0)
          next
      | Exit ->
        Code.exit_reg f ~cost:1 ~pass:Ebpf_vm.pass_code ~drop:Ebpf_vm.drop_code
          ~redirect:Ebpf_vm.redirect_code (r R0))
  done;
  Code.finish f compiled.(0)
