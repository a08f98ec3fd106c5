type reg = R0 | R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9

let reg_of_int = function
  | 0 -> R0
  | 1 -> R1
  | 2 -> R2
  | 3 -> R3
  | 4 -> R4
  | 5 -> R5
  | 6 -> R6
  | 7 -> R7
  | 8 -> R8
  | 9 -> R9
  | n -> invalid_arg (Printf.sprintf "reg_of_int %d" n)

let int_of_reg = function
  | R0 -> 0
  | R1 -> 1
  | R2 -> 2
  | R3 -> 3
  | R4 -> 4
  | R5 -> 5
  | R6 -> 6
  | R7 -> 7
  | R8 -> 8
  | R9 -> 9

type alu = Add | Sub | Mul | And | Or | Xor | Lsh | Rsh | Mod

type jmp = Jeq | Jne | Jlt | Jle | Jgt | Jge

type helper =
  | Map_lookup of Ebpf_maps.Array_map.t
  | Sk_select of Ebpf_maps.Sockarray.t
  | Reciprocal_scale
  | Sk_redirect of Ebpf_maps.Sockmap.t
  | Sk_copy

type insn =
  | Mov_imm of reg * int64
  | Mov_reg of reg * reg
  | Alu_imm of alu * reg * int64
  | Alu_reg of alu * reg * reg
  | Jmp_imm of jmp * reg * int64 * int
  | Jmp_reg of jmp * reg * reg * int
  | Ja of int
  | Ld_flow_hash of reg
  | Ld_dst_port of reg
  | St_stack of int * reg  (* stack slot := reg *)
  | Ld_stack of reg * int  (* reg := stack slot *)
  | Call of helper
  | Exit

let pass_code = 1L
let fallback_code = 0L
let drop_code = 2L
let redirect_code = 3L

type program = insn array

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Lsh -> "lsh"
  | Rsh -> "rsh"
  | Mod -> "mod"

let jmp_name = function
  | Jeq -> "jeq"
  | Jne -> "jne"
  | Jlt -> "jlt"
  | Jle -> "jle"
  | Jgt -> "jgt"
  | Jge -> "jge"

let reg_name r = Printf.sprintf "r%d" (int_of_reg r)

let helper_name = function
  | Map_lookup m -> Printf.sprintf "map_lookup(%s)" (Ebpf_maps.Array_map.name m)
  | Sk_select m -> Printf.sprintf "sk_select_reuseport(%s)" (Ebpf_maps.Sockarray.name m)
  | Reciprocal_scale -> "reciprocal_scale"
  | Sk_redirect m -> Printf.sprintf "sk_redirect_map(%s)" (Ebpf_maps.Sockmap.name m)
  | Sk_copy -> "sk_copy"

let pp_insn fmt = function
  | Mov_imm (d, v) -> Format.fprintf fmt "%s = %Ld" (reg_name d) v
  | Mov_reg (d, s) -> Format.fprintf fmt "%s = %s" (reg_name d) (reg_name s)
  | Alu_imm (op, d, v) ->
    Format.fprintf fmt "%s %s= %Ld" (reg_name d) (alu_name op) v
  | Alu_reg (op, d, s) ->
    Format.fprintf fmt "%s %s= %s" (reg_name d) (alu_name op) (reg_name s)
  | Jmp_imm (op, r, v, off) ->
    Format.fprintf fmt "if %s %s %Ld skip %d" (reg_name r) (jmp_name op) v off
  | Jmp_reg (op, a, b, off) ->
    Format.fprintf fmt "if %s %s %s skip %d" (reg_name a) (jmp_name op)
      (reg_name b) off
  | Ja off -> Format.fprintf fmt "ja skip %d" off
  | Ld_flow_hash d -> Format.fprintf fmt "%s = ctx->flow_hash" (reg_name d)
  | Ld_dst_port d -> Format.fprintf fmt "%s = ctx->dst_port" (reg_name d)
  | St_stack (slot, r) ->
    Format.fprintf fmt "stack[%d] = %s" slot (reg_name r)
  | Ld_stack (r, slot) ->
    Format.fprintf fmt "%s = stack[%d]" (reg_name r) slot
  | Call h -> Format.fprintf fmt "call %s" (helper_name h)
  | Exit -> Format.fprintf fmt "exit"

let disassemble prog =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun i insn ->
      Buffer.add_string buf (Format.asprintf "%4d: %a\n" i pp_insn insn))
    prog;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Mini-assembler: symbolic labels resolved to forward skip counts.    *)

type operand = Imm of int64 | Reg of reg

type asm =
  | I of insn
  | L of int (* label id *)
  | J of jmp * reg * operand * int (* conditional jump to label *)
  | Jmp of int (* unconditional jump to label *)

exception Compile_error of string

let resolve asms =
  (* first pass: index of each label in the final instruction stream *)
  let positions = Hashtbl.create 16 in
  let n = ref 0 in
  List.iter
    (function
      | L id -> Hashtbl.replace positions id !n
      | I _ | J _ | Jmp _ -> incr n)
    asms;
  let out = ref [] in
  let idx = ref 0 in
  let offset_to id =
    match Hashtbl.find_opt positions id with
    | None -> raise (Compile_error (Printf.sprintf "unbound label %d" id))
    | Some target ->
      let off = target - (!idx + 1) in
      if off < 0 then raise (Compile_error "backward jump");
      off
  in
  List.iter
    (function
      | L _ -> ()
      | I insn ->
        out := insn :: !out;
        incr idx
      | J (op, r, Imm v, id) ->
        out := Jmp_imm (op, r, v, offset_to id) :: !out;
        incr idx
      | J (op, r, Reg s, id) ->
        out := Jmp_reg (op, r, s, offset_to id) :: !out;
        incr idx
      | Jmp id ->
        out := Ja (offset_to id) :: !out;
        incr idx)
    asms;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Compiler from the Ebpf expression AST.                               *)

(* SWAR Hamming weight over [v].  r5 is the dedicated bit-twiddling
   scratch register: it is caller-saved (dead across helper calls
   anyway) and never holds a live value between instructions the
   emitter controls. *)
let emit_popcount ?(tmp = R5) v =
  ignore tmp;
  let tmp = R5 in
  [
    I (Mov_reg (tmp, v));
    I (Alu_imm (Rsh, tmp, 1L));
    I (Alu_imm (And, tmp, 0x5555555555555555L));
    I (Alu_reg (Sub, v, tmp));
    I (Mov_reg (tmp, v));
    I (Alu_imm (Rsh, tmp, 2L));
    I (Alu_imm (And, tmp, 0x3333333333333333L));
    I (Alu_imm (And, v, 0x3333333333333333L));
    I (Alu_reg (Add, v, tmp));
    I (Mov_reg (tmp, v));
    I (Alu_imm (Rsh, tmp, 4L));
    I (Alu_reg (Add, v, tmp));
    I (Alu_imm (And, v, 0x0F0F0F0F0F0F0F0FL));
    I (Alu_imm (Mul, v, 0x0101010101010101L));
    I (Alu_imm (Rsh, v, 56L));
  ]

(* Unrolled rank-select: position of the [n]-th set bit of [b]
   (1-based), or -1.  Needs [b], [n], and two further scratch
   registers (plus r5 inside the popcounts); result left in [b]. *)
let emit_find_nth ~fresh_label b n pos tmp =
  let invalid = fresh_label () in
  let done_ = fresh_label () in
  let level width =
    let skip = fresh_label () in
    let mask = Int64.sub (Int64.shift_left 1L width) 1L in
    [ I (Mov_reg (tmp, b)); I (Alu_imm (And, tmp, mask)) ]
    @ emit_popcount tmp
    @ [
        (* if n <= popcount(low half), the target bit is below: keep *)
        J (Jle, n, Reg tmp, skip);
        I (Alu_reg (Sub, n, tmp));
        I (Alu_imm (Rsh, b, Int64.of_int width));
        I (Alu_imm (Add, pos, Int64.of_int width));
        L skip;
      ]
  in
  [
    I (Mov_imm (pos, -1L));
    (* n < 1: invalid *)
    J (Jlt, n, Imm 1L, invalid);
    (* popcount(b) < n: invalid *)
    I (Mov_reg (tmp, b));
  ]
  @ emit_popcount tmp
  @ [ J (Jlt, tmp, Reg n, invalid); I (Mov_imm (pos, 0L)) ]
  @ List.concat_map level [ 32; 16; 8; 4; 2; 1 ]
  @ [ L invalid; Jmp done_; L done_; I (Mov_reg (b, pos)) ]

let max_stack_slots = 64

(* Compile [expr] so its value ends up in scratch register [free]
   (r6..r9, the callee-saved range — values there survive helper
   calls); registers above [free] are transient.  Let bindings live in
   stack slots, as real BPF compilers spill locals that must survive
   calls; [env] maps names to slots, [slots] is the bump allocator. *)
let rec compile_expr ~fresh_label ~env ~slots ~free expr =
  if free > 9 then
    raise (Compile_error "expression too deep: out of scratch registers");
  let dst = reg_of_int free in
  match (expr : Ebpf.expr) with
  | Ebpf.Const v -> [ I (Mov_imm (dst, v)) ]
  | Ebpf.Flow_hash -> [ I (Ld_flow_hash dst) ]
  | Ebpf.Dst_port -> [ I (Ld_dst_port dst) ]
  | Ebpf.Var name -> (
    match List.assoc_opt name env with
    | Some slot -> [ I (Ld_stack (dst, slot)) ]
    | None -> raise (Compile_error ("unbound variable " ^ name)))
  | Ebpf.Let (name, bound, body) ->
    let slot = !slots in
    if slot >= max_stack_slots then raise (Compile_error "out of stack slots");
    incr slots;
    compile_expr ~fresh_label ~env ~slots ~free bound
    @ [ I (St_stack (slot, dst)) ]
    @ compile_expr ~fresh_label ~env:((name, slot) :: env) ~slots ~free body
  | Ebpf.Lookup (map, key) ->
    compile_expr ~fresh_label ~env ~slots ~free key
    @ [ I (Mov_reg (R1, dst)); I (Call (Map_lookup map)); I (Mov_reg (dst, R0)) ]
  | Ebpf.Reciprocal_scale (h, n) ->
    if free + 1 > 9 then raise (Compile_error "out of scratch registers");
    compile_expr ~fresh_label ~env ~slots ~free h
    @ compile_expr ~fresh_label ~env ~slots ~free:(free + 1) n
    @ [
        I (Mov_reg (R1, dst));
        I (Mov_reg (R2, reg_of_int (free + 1)));
        I (Call Reciprocal_scale);
        I (Mov_reg (dst, R0));
      ]
  | Ebpf.Popcount e ->
    compile_expr ~fresh_label ~env ~slots ~free e @ emit_popcount dst
  | Ebpf.Find_nth_set (bm, n) ->
    if free + 3 > 9 then raise (Compile_error "out of scratch registers");
    compile_expr ~fresh_label ~env ~slots ~free bm
    @ compile_expr ~fresh_label ~env ~slots ~free:(free + 1) n
    @ emit_find_nth ~fresh_label dst
        (reg_of_int (free + 1))
        (reg_of_int (free + 2))
        (reg_of_int (free + 3))
  | Ebpf.Band (a, b) -> binop ~fresh_label ~env ~slots ~free And a b
  | Ebpf.Bor (a, b) -> binop ~fresh_label ~env ~slots ~free Or a b
  | Ebpf.Bxor (a, b) -> binop ~fresh_label ~env ~slots ~free Xor a b
  | Ebpf.Add (a, b) -> binop ~fresh_label ~env ~slots ~free Add a b
  | Ebpf.Sub (a, b) -> binop ~fresh_label ~env ~slots ~free Sub a b
  | Ebpf.Shl (a, b) -> binop ~fresh_label ~env ~slots ~free Lsh a b
  | Ebpf.Shr (a, b) -> binop ~fresh_label ~env ~slots ~free Rsh a b
  | Ebpf.Mod (a, b) -> binop ~fresh_label ~env ~slots ~free Mod a b

and binop ~fresh_label ~env ~slots ~free op a b =
  let dst = reg_of_int free in
  let commutative = match op with Add | Mul | And | Or | Xor -> true | _ -> false in
  match (a, b) with
  (* immediate operands save a scratch register — important for the
     deeply-nested two-level dispatch program *)
  | _, Ebpf.Const v ->
    compile_expr ~fresh_label ~env ~slots ~free a @ [ I (Alu_imm (op, dst, v)) ]
  | Ebpf.Const v, _ when commutative ->
    compile_expr ~fresh_label ~env ~slots ~free b @ [ I (Alu_imm (op, dst, v)) ]
  | _ ->
    if free + 1 > 9 then raise (Compile_error "out of scratch registers");
    compile_expr ~fresh_label ~env ~slots ~free a
    @ compile_expr ~fresh_label ~env ~slots ~free:(free + 1) b
    @ [ I (Alu_reg (op, dst, reg_of_int (free + 1))) ]

let jmp_of_cmp : Ebpf.cmp -> jmp = function
  | Ebpf.Eq -> Jeq
  | Ebpf.Ne -> Jne
  | Ebpf.Lt -> Jlt
  | Ebpf.Le -> Jle
  | Ebpf.Gt -> Jgt
  | Ebpf.Ge -> Jge

let rec compile_ret ~fresh_label ~env ~slots ~free (ret : Ebpf.ret) =
  match ret with
  | Ebpf.Fallback -> [ I (Mov_imm (R0, fallback_code)); I Exit ]
  | Ebpf.Drop -> [ I (Mov_imm (R0, drop_code)); I Exit ]
  | Ebpf.Select (sockarray, idx) ->
    (* Guard the computed index explicitly, exactly as real BPF
       programs must: the in-kernel verifier only admits an array
       access once the program itself has compared the index against
       the array bounds, and our {!Verifier} discharges the
       [Sk_select] obligation through the same branch refinement.
       Out-of-range indices fall back — the same outcome the runtime
       [Fault] check produced before. *)
    let oob = fresh_label () in
    let size = Int64.of_int (Ebpf_maps.Sockarray.size sockarray) in
    compile_expr ~fresh_label ~env ~slots ~free idx
    @ [
        J (Jlt, reg_of_int free, Imm 0L, oob);
        J (Jge, reg_of_int free, Imm size, oob);
        I (Mov_reg (R1, reg_of_int free));
        I (Call (Sk_select sockarray));
        I (Mov_imm (R0, pass_code));
        I Exit;
        L oob;
        I (Mov_imm (R0, fallback_code));
        I Exit;
      ]
  | Ebpf.If (cmp, a, b, then_, else_) ->
    let then_label = fresh_label () in
    let condition =
      match b with
      | Ebpf.Const v ->
        compile_expr ~fresh_label ~env ~slots ~free a
        @ [ J (jmp_of_cmp cmp, reg_of_int free, Imm v, then_label) ]
      | _ ->
        if free + 1 > 9 then raise (Compile_error "out of scratch registers");
        compile_expr ~fresh_label ~env ~slots ~free a
        @ compile_expr ~fresh_label ~env ~slots ~free:(free + 1) b
        @ [
            J (jmp_of_cmp cmp, reg_of_int free, Reg (reg_of_int (free + 1)), then_label);
          ]
    in
    condition
    @ compile_ret ~fresh_label ~env ~slots ~free else_
    @ [ L then_label ]
    @ compile_ret ~fresh_label ~env ~slots ~free then_
  | Ebpf.Let_ret (name, bound, body) ->
    let slot = !slots in
    if slot >= max_stack_slots then raise (Compile_error "out of stack slots");
    incr slots;
    compile_expr ~fresh_label ~env ~slots ~free bound
    @ [ I (St_stack (slot, reg_of_int free)) ]
    @ compile_ret ~fresh_label ~env:((name, slot) :: env) ~slots ~free body
  | Ebpf.Redirect (map, key, copy, miss) ->
    (* Same guard discipline as [Select]: the sockmap key and the copy
       length are compared against their bounds before the helper
       calls, so the {!Verifier} can discharge the [Sockmap_key] and
       [Copy_len] obligations by branch refinement (or statically,
       when the expressions are masked).  An r0 of 0 from
       [sk_redirect_map] means the slot is unoccupied — the connection
       is not spliced — and control falls through to [miss]. *)
    let oob = fresh_label () in
    let miss_label = fresh_label () in
    let size = Int64.of_int (Ebpf_maps.Sockmap.size map) in
    compile_expr ~fresh_label ~env ~slots ~free key
    @ [
        J (Jlt, reg_of_int free, Imm 0L, oob);
        J (Jge, reg_of_int free, Imm size, oob);
        I (Mov_reg (R1, reg_of_int free));
        I (Call (Sk_redirect map));
        J (Jeq, R0, Imm 0L, miss_label);
      ]
    @ compile_expr ~fresh_label ~env ~slots ~free copy
    @ [
        J (Jlt, reg_of_int free, Imm 0L, oob);
        J (Jgt, reg_of_int free, Imm (Int64.of_int Ebpf.copy_limit), oob);
        I (Mov_reg (R1, reg_of_int free));
        I (Call Sk_copy);
        I (Mov_imm (R0, redirect_code));
        I Exit;
        L miss_label;
      ]
    @ compile_ret ~fresh_label ~env ~slots ~free miss
    @ [ L oob; I (Mov_imm (R0, fallback_code)); I Exit ]

let compile (prog : Ebpf.prog) =
  let counter = ref 0 in
  let fresh_label () =
    incr counter;
    !counter
  in
  let slots = ref 0 in
  match
    resolve (compile_ret ~fresh_label ~env:[] ~slots ~free:6 prog.Ebpf.body)
  with
  | code -> Ok code
  | exception Compile_error msg -> Error ("ebpf_vm compile: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Certificates                                                         *)

let max_insns = 4096

(* A [verified] program carries the fault-site certificate produced by
   {!Verifier}: [proved.(pc)] means the dynamic safety checks of insn
   [pc] (shift range, mod-by-zero, map/sockarray index) were discharged
   statically, so [run] may skip them. *)
type verified = {
  code : program;
  proved : bool array;
  no_cert : bool array; (* all-false mask, for [run_checked] *)
  all_proved : bool;
}

let certify code ~proved =
  if Array.length proved <> Array.length code then
    invalid_arg "Ebpf_vm.certify: certificate length mismatch";
  {
    code = Array.copy code;
    proved = Array.copy proved;
    no_cert = Array.make (Array.length code) false;
    all_proved = Array.for_all Fun.id proved;
  }

let insn_count v = Array.length v.code
let program_of v = Array.copy v.code
let certificate v = Array.copy v.proved
let fully_proved v = v.all_proved

let residual_checks v =
  Array.fold_left (fun acc ok -> if ok then acc else acc + 1) 0 v.proved

(* ------------------------------------------------------------------ *)
(* Interpreter                                                          *)

exception Fault

let test op a b =
  match op with
  | Jeq -> Int64.equal a b
  | Jne -> not (Int64.equal a b)
  | Jlt -> Int64.compare a b < 0
  | Jle -> Int64.compare a b <= 0
  | Jgt -> Int64.compare a b > 0
  | Jge -> Int64.compare a b >= 0

(* Certificate-directed interpreter: [safe.(pc)] skips the dynamic
   checks at [pc].  If a certificate were ever unsound, the skipped
   check's failure would surface as an escaping exception
   (Division_by_zero / Invalid_argument) rather than a silent
   fall-back — deliberately loud. *)
let exec_checked code (safe : bool array) (ctx : Ebpf.ctx) =
  let len = Array.length code in
  let regs = Array.make 10 0L in
  let stack = Array.make max_stack_slots 0L in
  let selected = ref None in
  let redirect = ref None in
  let copy_len = ref 0 in
  let cycles = ref 0 in
  let get r = regs.(int_of_reg r) in
  let set r x = regs.(int_of_reg r) <- x in
  let alu pc op a b =
    match op with
    | Add -> Int64.add a b
    | Sub -> Int64.sub a b
    | Mul -> Int64.mul a b
    | And -> Int64.logand a b
    | Or -> Int64.logor a b
    | Xor -> Int64.logxor a b
    | Lsh ->
      let s = Int64.to_int b in
      if (not safe.(pc)) && (s < 0 || s > 63) then raise Fault;
      Int64.shift_left a s
    | Rsh ->
      let s = Int64.to_int b in
      if (not safe.(pc)) && (s < 0 || s > 63) then raise Fault;
      Int64.shift_right_logical a s
    | Mod ->
      if (not safe.(pc)) && Int64.equal b 0L then raise Fault;
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
      set d (alu pc op (get d) x);
      step (pc + 1)
    | Alu_reg (op, d, s) ->
      set d (alu pc op (get d) (get s));
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
        if (not safe.(pc)) && (k < 0 || k >= Ebpf_maps.Array_map.size map)
        then raise Fault;
        set R0 (Ebpf_maps.Array_map.unsafe_lookup map k)
      | Sk_select sockarray -> (
        let i = Int64.to_int (get R1) in
        if
          (not safe.(pc))
          && (i < 0 || i >= Ebpf_maps.Sockarray.size sockarray)
        then raise Fault;
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
        if (not safe.(pc)) && (k < 0 || k >= Ebpf_maps.Sockmap.size map)
        then raise Fault;
        match Ebpf_maps.Sockmap.unsafe_get map k with
        | None -> set R0 0L
        | Some _ as e ->
          redirect := e;
          set R0 1L)
      | Sk_copy ->
        let c = Int64.to_int (get R1) in
        if (not safe.(pc)) && (c < 0 || c > Ebpf.copy_limit) then raise Fault;
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

(* Unchecked fast path for fully-certified programs: no per-site
   branches at all, and no OCaml array bounds checks either — the
   verifier's structural pass bounds every stack slot and jump target,
   registers are 0..9 by construction, so the certificate licenses
   [unsafe_get]/[unsafe_set] throughout.  Only the inherently dynamic
   checks remain (empty sockarray slot, reciprocal_scale of a
   non-positive n, and the cannot-happen-on-verified-code pc guard). *)
let exec_fast code (ctx : Ebpf.ctx) =
  let len = Array.length code in
  let regs = Array.make 10 0L in
  let stack = Array.make max_stack_slots 0L in
  let selected = ref None in
  let redirect = ref None in
  let copy_len = ref 0 in
  let cycles = ref 0 in
  let get r = Array.unsafe_get regs (int_of_reg r) in
  let set r x = Array.unsafe_set regs (int_of_reg r) x in
  let alu op a b =
    match op with
    | Add -> Int64.add a b
    | Sub -> Int64.sub a b
    | Mul -> Int64.mul a b
    | And -> Int64.logand a b
    | Or -> Int64.logor a b
    | Xor -> Int64.logxor a b
    | Lsh -> Int64.shift_left a (Int64.to_int b)
    | Rsh -> Int64.shift_right_logical a (Int64.to_int b)
    | Mod -> Int64.rem a b
  in
  let rec step pc =
    if pc >= len then raise Fault;
    incr cycles;
    match Array.unsafe_get code pc with
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
      Array.unsafe_set stack slot (get r);
      step (pc + 1)
    | Ld_stack (r, slot) ->
      set r (Array.unsafe_get stack slot);
      step (pc + 1)
    | Call h ->
      cycles := !cycles + 4;
      (match h with
      | Map_lookup map ->
        set R0 (Ebpf_maps.Array_map.unsafe_lookup map (Int64.to_int (get R1)))
      | Sk_select sockarray -> (
        match
          Ebpf_maps.Sockarray.unsafe_get sockarray (Int64.to_int (get R1))
        with
        | None -> raise Fault
        | Some sock ->
          selected := Some sock;
          set R0 0L)
      | Reciprocal_scale ->
        let h = Int64.to_int (get R1) and n = Int64.to_int (get R2) in
        if n <= 0 then raise Fault;
        set R0 (Int64.of_int (Bitops.reciprocal_scale ~hash:h ~n))
      | Sk_redirect map -> (
        match Ebpf_maps.Sockmap.unsafe_get map (Int64.to_int (get R1)) with
        | None -> set R0 0L
        | Some _ as e ->
          redirect := e;
          set R0 1L)
      | Sk_copy ->
        copy_len := Int64.to_int (get R1);
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

let emit_run (ctx : Ebpf.ctx) outcome cycles =
  if Trace.enabled () then
    Trace.emit
      (Trace.Prog_run
         {
           prog = "bytecode";
           flow_hash = ctx.Ebpf.flow_hash;
           outcome = Ebpf.trace_outcome outcome;
           cycles;
         })

let run v ctx =
  let outcome, cycles =
    if v.all_proved then exec_fast v.code ctx
    else exec_checked v.code v.proved ctx
  in
  emit_run ctx outcome cycles;
  (outcome, cycles)

let run_checked v ctx =
  let outcome, cycles = exec_checked v.code v.no_cert ctx in
  emit_run ctx outcome cycles;
  (outcome, cycles)
