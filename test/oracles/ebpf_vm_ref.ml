(* The checked reference interpreter of verified eBPF bytecode: every
   dynamic check armed, so it takes the bare program and ignores the
   certificate.  It is the oracle the closure JIT's certificate-directed
   guard elision is tested against, and the interpreter side of the
   dispatch and splice bench rows.  The count is instructions executed
   (helpers cost 4 extra).  A firing check, an empty socket slot or a
   non-positive [reciprocal_scale] divisor makes the program fall back,
   as the kernel ignores a failing program.  Emits no trace event. *)

open Kernel
open Kernel.Ebpf_vm

exception Fault

let test op a b =
  match op with
  | Jeq -> Int64.equal a b
  | Jne -> not (Int64.equal a b)
  | Jlt -> Int64.compare a b < 0
  | Jle -> Int64.compare a b <= 0
  | Jgt -> Int64.compare a b > 0
  | Jge -> Int64.compare a b >= 0

let run_checked (code : program) (ctx : Ebpf.ctx) =
  let len = Array.length code in
  let regs = Array.make 10 0L in
  let stack = Array.make max_stack_slots 0L in
  let selected = ref None in
  let redirect = ref None in
  let copy_len = ref 0 in
  let cycles = ref 0 in
  let get r = regs.(int_of_reg r) in
  let set r x = regs.(int_of_reg r) <- x in
  let alu op a b =
    match op with
    | Add -> Int64.add a b
    | Sub -> Int64.sub a b
    | Mul -> Int64.mul a b
    | And -> Int64.logand a b
    | Or -> Int64.logor a b
    | Xor -> Int64.logxor a b
    | Lsh ->
      let s = Int64.to_int b in
      if s < 0 || s > 63 then raise Fault;
      Int64.shift_left a s
    | Rsh ->
      let s = Int64.to_int b in
      if s < 0 || s > 63 then raise Fault;
      Int64.shift_right_logical a s
    | Mod ->
      if Int64.equal b 0L then raise Fault;
      Int64.rem a b
  in
  let rec step pc =
    if pc >= len then raise Fault;
    incr cycles;
    match code.(pc) with
    | Mov_imm (d, x) ->
      set d x;
      step (pc + 1)
    | Mov_reg (d, s) ->
      set d (get s);
      step (pc + 1)
    | Alu_imm (op, d, x) ->
      set d (alu op (get d) x);
      step (pc + 1)
    | Alu_reg (op, d, s) ->
      set d (alu op (get d) (get s));
      step (pc + 1)
    | Jmp_imm (op, r, x, off) ->
      if test op (get r) x then step (pc + 1 + off) else step (pc + 1)
    | Jmp_reg (op, a, b, off) ->
      if test op (get a) (get b) then step (pc + 1 + off) else step (pc + 1)
    | Ja off -> step (pc + 1 + off)
    | Ld_flow_hash d ->
      set d (Int64.of_int ctx.Ebpf.flow_hash);
      step (pc + 1)
    | Ld_dst_port d ->
      set d (Int64.of_int ctx.Ebpf.dst_port);
      step (pc + 1)
    | St_stack (slot, r) ->
      stack.(slot) <- get r;
      step (pc + 1)
    | Ld_stack (r, slot) ->
      set r stack.(slot);
      step (pc + 1)
    | Call h ->
      cycles := !cycles + 4;
      (match h with
      | Map_lookup map ->
        let k = Int64.to_int (get R1) in
        if k < 0 || k >= Ebpf_maps.Array_map.size map then raise Fault;
        set R0 (Ebpf_maps.Array_map.unsafe_lookup map k)
      | Sk_select sockarray -> (
        let i = Int64.to_int (get R1) in
        if i < 0 || i >= Ebpf_maps.Sockarray.size sockarray then raise Fault;
        match Ebpf_maps.Sockarray.unsafe_get sockarray i with
        | None -> raise Fault
        | Some sock ->
          selected := Some sock;
          set R0 0L)
      | Reciprocal_scale ->
        let h = Int64.to_int (get R1) and n = Int64.to_int (get R2) in
        if n <= 0 then raise Fault;
        set R0 (Int64.of_int (Bitops.reciprocal_scale ~hash:h ~n))
      | Sk_redirect map -> (
        let k = Int64.to_int (get R1) in
        if k < 0 || k >= Ebpf_maps.Sockmap.size map then raise Fault;
        match Ebpf_maps.Sockmap.unsafe_get map k with
        | None -> set R0 0L
        | Some _ as e ->
          redirect := e;
          set R0 1L)
      | Sk_copy ->
        let c = Int64.to_int (get R1) in
        if c < 0 || c > Ebpf.copy_limit then raise Fault;
        copy_len := c;
        set R0 (get R1));
      step (pc + 1)
    | Exit ->
      let r0 = get R0 in
      if Int64.equal r0 pass_code then
        match !selected with
        | Some sock -> Ebpf.Selected sock
        | None -> raise Fault
      else if Int64.equal r0 drop_code then Ebpf.Dropped
      else if Int64.equal r0 redirect_code then
        match !redirect with
        | Some { Ebpf_maps.Sockmap.conn; target } ->
          Ebpf.Redirected { conn; target; copy = !copy_len }
        | None -> raise Fault
      else Ebpf.Fell_back
  in
  let outcome =
    match step 0 with outcome -> outcome | exception Fault -> Ebpf.Fell_back
  in
  (outcome, !cycles)
