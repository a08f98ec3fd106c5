(* Closure-compiling JIT for verified eBPF bytecode.

   One closure per instruction, compiled in reverse program order so
   that fall-through and forward-jump successors are captured directly
   (a direct tail call at run time); backward jumps — the verifier
   admits bounded loops — go through one load of the [compiled] array,
   which is fully populated by the time anything runs.

   Execution scratch is a pair of int64 bigarrays.  Unlike [int64
   array] (whose elements are boxed) or per-run [Array.make] (the
   interpreter's cost this module exists to kill), bigarray cells
   store the payload flat, and ocamlopt cancels the box/unbox pairs
   around chained [Int64] primitives, so a steady-state [exec] touches
   the minor heap zero times.  The scratch is reused across
   invocations WITHOUT re-zeroing: the verifier rejects any program
   that reads a register or stack slot before writing it on every
   path, so stale values from the previous packet are unobservable.

   Cycle accounting matches the interpreter instruction for
   instruction (1 per step, +4 per helper call, faults charged up to
   the faulting step) so the two backends are differential-testable on
   (outcome, cycles) pairs. *)

module A = Bigarray.Array1

type i64s = (int64, Bigarray.int64_elt, Bigarray.c_layout) A.t

type state = {
  regs : i64s;
  stack : i64s;
  mutable sel : Socket.t option;
      (* holds the sockarray's own [Some] cell — never a fresh one *)
  mutable redir : Ebpf_maps.Sockmap.entry option;
      (* likewise: the sockmap's own [Some] cell *)
  mutable copy_len : int;
  mutable cycles : int;
  mutable flow_hash : int;
  mutable dst_port : int;
}

type t = { st : state; entry : unit -> int }

exception Fault

let ri = Ebpf_vm.int_of_reg

let compile (v : Ebpf_vm.verified) =
  let code = Ebpf_vm.program_of v in
  let proved = Ebpf_vm.certificate v in
  let len = Array.length code in
  let st =
    {
      regs = A.create Bigarray.Int64 Bigarray.c_layout 10;
      stack = A.create Bigarray.Int64 Bigarray.c_layout Ebpf_vm.max_stack_slots;
      sel = None;
      redir = None;
      copy_len = 0;
      cycles = 0;
      flow_hash = 0;
      dst_port = 0;
    }
  in
  A.fill st.regs 0L;
  A.fill st.stack 0L;
  (* Interpreter semantics for running off either end of the program:
     fault, with no cycle charged for the out-of-range pc. *)
  let fall_off () = raise Fault in
  let compiled = Array.make (max len 1) fall_off in
  let resolve ~pc target =
    if target < 0 || target >= len then fall_off
    else if target > pc then compiled.(target) (* reverse order: ready *)
    else fun () -> (Array.unsafe_get compiled target) () (* backedge *)
  in
  for pc = len - 1 downto 0 do
    let next = if pc + 1 >= len then fall_off else compiled.(pc + 1) in
    let safe = proved.(pc) in
    let step () = st.cycles <- st.cycles + 1 in
    let cl =
      match code.(pc) with
      | Ebpf_vm.Mov_imm (d, x) ->
        let d = ri d in
        fun () ->
          step ();
          A.unsafe_set st.regs d x;
          next ()
      | Ebpf_vm.Mov_reg (d, s) ->
        let d = ri d and s = ri s in
        fun () ->
          step ();
          A.unsafe_set st.regs d (A.unsafe_get st.regs s);
          next ()
      | Ebpf_vm.Alu_imm (op, d, x) -> (
        let d = ri d in
        match op with
        | Ebpf_vm.Add ->
          fun () ->
            step ();
            A.unsafe_set st.regs d (Int64.add (A.unsafe_get st.regs d) x);
            next ()
        | Ebpf_vm.Sub ->
          fun () ->
            step ();
            A.unsafe_set st.regs d (Int64.sub (A.unsafe_get st.regs d) x);
            next ()
        | Ebpf_vm.Mul ->
          fun () ->
            step ();
            A.unsafe_set st.regs d (Int64.mul (A.unsafe_get st.regs d) x);
            next ()
        | Ebpf_vm.And ->
          fun () ->
            step ();
            A.unsafe_set st.regs d (Int64.logand (A.unsafe_get st.regs d) x);
            next ()
        | Ebpf_vm.Or ->
          fun () ->
            step ();
            A.unsafe_set st.regs d (Int64.logor (A.unsafe_get st.regs d) x);
            next ()
        | Ebpf_vm.Xor ->
          fun () ->
            step ();
            A.unsafe_set st.regs d (Int64.logxor (A.unsafe_get st.regs d) x);
            next ()
        | Ebpf_vm.Lsh ->
          (* immediate shift amount: the range check resolves at
             compile time *)
          let s = Int64.to_int x in
          if (not safe) && (s < 0 || s > 63) then fun () ->
            step ();
            raise Fault
          else fun () ->
            step ();
            A.unsafe_set st.regs d (Int64.shift_left (A.unsafe_get st.regs d) s);
            next ()
        | Ebpf_vm.Rsh ->
          let s = Int64.to_int x in
          if (not safe) && (s < 0 || s > 63) then fun () ->
            step ();
            raise Fault
          else fun () ->
            step ();
            A.unsafe_set st.regs d
              (Int64.shift_right_logical (A.unsafe_get st.regs d) s);
            next ()
        | Ebpf_vm.Mod ->
          if (not safe) && Int64.equal x 0L then fun () ->
            step ();
            raise Fault
          else fun () ->
            step ();
            A.unsafe_set st.regs d (Int64.rem (A.unsafe_get st.regs d) x);
            next ())
      | Ebpf_vm.Alu_reg (op, d, s) -> (
        let d = ri d and s = ri s in
        match op with
        | Ebpf_vm.Add ->
          fun () ->
            step ();
            A.unsafe_set st.regs d
              (Int64.add (A.unsafe_get st.regs d) (A.unsafe_get st.regs s));
            next ()
        | Ebpf_vm.Sub ->
          fun () ->
            step ();
            A.unsafe_set st.regs d
              (Int64.sub (A.unsafe_get st.regs d) (A.unsafe_get st.regs s));
            next ()
        | Ebpf_vm.Mul ->
          fun () ->
            step ();
            A.unsafe_set st.regs d
              (Int64.mul (A.unsafe_get st.regs d) (A.unsafe_get st.regs s));
            next ()
        | Ebpf_vm.And ->
          fun () ->
            step ();
            A.unsafe_set st.regs d
              (Int64.logand (A.unsafe_get st.regs d) (A.unsafe_get st.regs s));
            next ()
        | Ebpf_vm.Or ->
          fun () ->
            step ();
            A.unsafe_set st.regs d
              (Int64.logor (A.unsafe_get st.regs d) (A.unsafe_get st.regs s));
            next ()
        | Ebpf_vm.Xor ->
          fun () ->
            step ();
            A.unsafe_set st.regs d
              (Int64.logxor (A.unsafe_get st.regs d) (A.unsafe_get st.regs s));
            next ()
        | Ebpf_vm.Lsh ->
          if safe then fun () ->
            step ();
            A.unsafe_set st.regs d
              (Int64.shift_left (A.unsafe_get st.regs d)
                 (Int64.to_int (A.unsafe_get st.regs s)));
            next ()
          else fun () ->
            step ();
            let sh = Int64.to_int (A.unsafe_get st.regs s) in
            if sh < 0 || sh > 63 then raise Fault;
            A.unsafe_set st.regs d (Int64.shift_left (A.unsafe_get st.regs d) sh);
            next ()
        | Ebpf_vm.Rsh ->
          if safe then fun () ->
            step ();
            A.unsafe_set st.regs d
              (Int64.shift_right_logical (A.unsafe_get st.regs d)
                 (Int64.to_int (A.unsafe_get st.regs s)));
            next ()
          else fun () ->
            step ();
            let sh = Int64.to_int (A.unsafe_get st.regs s) in
            if sh < 0 || sh > 63 then raise Fault;
            A.unsafe_set st.regs d
              (Int64.shift_right_logical (A.unsafe_get st.regs d) sh);
            next ()
        | Ebpf_vm.Mod ->
          if safe then fun () ->
            step ();
            A.unsafe_set st.regs d
              (Int64.rem (A.unsafe_get st.regs d) (A.unsafe_get st.regs s));
            next ()
          else fun () ->
            step ();
            let b : int64 = A.unsafe_get st.regs s in
            if b = 0L then raise Fault;
            A.unsafe_set st.regs d (Int64.rem (A.unsafe_get st.regs d) b);
            next ())
      | Ebpf_vm.Jmp_imm (op, r, x, off) -> (
        let r = ri r in
        let tgt = resolve ~pc (pc + 1 + off) in
        match op with
        | Ebpf_vm.Jeq ->
          fun () ->
            step ();
            if (A.unsafe_get st.regs r : int64) = x then tgt () else next ()
        | Ebpf_vm.Jne ->
          fun () ->
            step ();
            if (A.unsafe_get st.regs r : int64) <> x then tgt () else next ()
        | Ebpf_vm.Jlt ->
          fun () ->
            step ();
            if (A.unsafe_get st.regs r : int64) < x then tgt () else next ()
        | Ebpf_vm.Jle ->
          fun () ->
            step ();
            if (A.unsafe_get st.regs r : int64) <= x then tgt () else next ()
        | Ebpf_vm.Jgt ->
          fun () ->
            step ();
            if (A.unsafe_get st.regs r : int64) > x then tgt () else next ()
        | Ebpf_vm.Jge ->
          fun () ->
            step ();
            if (A.unsafe_get st.regs r : int64) >= x then tgt () else next ())
      | Ebpf_vm.Jmp_reg (op, a, b, off) -> (
        let a = ri a and b = ri b in
        let tgt = resolve ~pc (pc + 1 + off) in
        match op with
        | Ebpf_vm.Jeq ->
          fun () ->
            step ();
            if (A.unsafe_get st.regs a : int64) = A.unsafe_get st.regs b then
              tgt ()
            else next ()
        | Ebpf_vm.Jne ->
          fun () ->
            step ();
            if (A.unsafe_get st.regs a : int64) <> A.unsafe_get st.regs b then
              tgt ()
            else next ()
        | Ebpf_vm.Jlt ->
          fun () ->
            step ();
            if (A.unsafe_get st.regs a : int64) < A.unsafe_get st.regs b then
              tgt ()
            else next ()
        | Ebpf_vm.Jle ->
          fun () ->
            step ();
            if (A.unsafe_get st.regs a : int64) <= A.unsafe_get st.regs b then
              tgt ()
            else next ()
        | Ebpf_vm.Jgt ->
          fun () ->
            step ();
            if (A.unsafe_get st.regs a : int64) > A.unsafe_get st.regs b then
              tgt ()
            else next ()
        | Ebpf_vm.Jge ->
          fun () ->
            step ();
            if (A.unsafe_get st.regs a : int64) >= A.unsafe_get st.regs b then
              tgt ()
            else next ())
      | Ebpf_vm.Ja off ->
        let tgt = resolve ~pc (pc + 1 + off) in
        fun () ->
          step ();
          tgt ()
      | Ebpf_vm.Ld_flow_hash d ->
        let d = ri d in
        fun () ->
          step ();
          A.unsafe_set st.regs d (Int64.of_int st.flow_hash);
          next ()
      | Ebpf_vm.Ld_dst_port d ->
        let d = ri d in
        fun () ->
          step ();
          A.unsafe_set st.regs d (Int64.of_int st.dst_port);
          next ()
      | Ebpf_vm.St_stack (slot, r) ->
        (* slot bounded by the structural verifier pass *)
        let r = ri r in
        fun () ->
          step ();
          A.unsafe_set st.stack slot (A.unsafe_get st.regs r);
          next ()
      | Ebpf_vm.Ld_stack (r, slot) ->
        let r = ri r in
        fun () ->
          step ();
          A.unsafe_set st.regs r (A.unsafe_get st.stack slot);
          next ()
      | Ebpf_vm.Call (Ebpf_vm.Map_lookup map) ->
        let size = Ebpf_maps.Array_map.size map in
        if safe then fun () ->
          st.cycles <- st.cycles + 5;
          A.unsafe_set st.regs 0
            (Ebpf_maps.Array_map.unsafe_lookup map
               (Int64.to_int (A.unsafe_get st.regs 1)));
          next ()
        else fun () ->
          st.cycles <- st.cycles + 5;
          let k = Int64.to_int (A.unsafe_get st.regs 1) in
          if k < 0 || k >= size then raise Fault;
          A.unsafe_set st.regs 0 (Ebpf_maps.Array_map.unsafe_lookup map k);
          next ()
      | Ebpf_vm.Call (Ebpf_vm.Sk_select sa) ->
        let size = Ebpf_maps.Sockarray.size sa in
        if safe then fun () ->
          st.cycles <- st.cycles + 5;
          (match
             Ebpf_maps.Sockarray.unsafe_get sa
               (Int64.to_int (A.unsafe_get st.regs 1))
           with
          | None -> raise Fault
          | Some _ as r -> st.sel <- r);
          A.unsafe_set st.regs 0 0L;
          next ()
        else fun () ->
          st.cycles <- st.cycles + 5;
          let i = Int64.to_int (A.unsafe_get st.regs 1) in
          if i < 0 || i >= size then raise Fault;
          (match Ebpf_maps.Sockarray.unsafe_get sa i with
          | None -> raise Fault
          | Some _ as r -> st.sel <- r);
          A.unsafe_set st.regs 0 0L;
          next ()
      | Ebpf_vm.Call Ebpf_vm.Reciprocal_scale ->
        fun () ->
          st.cycles <- st.cycles + 5;
          let h = Int64.to_int (A.unsafe_get st.regs 1)
          and n = Int64.to_int (A.unsafe_get st.regs 2) in
          if n <= 0 then raise Fault;
          A.unsafe_set st.regs 0 (Int64.of_int (Bitops.reciprocal_scale ~hash:h ~n));
          next ()
      | Ebpf_vm.Call (Ebpf_vm.Sk_redirect map) ->
        let size = Ebpf_maps.Sockmap.size map in
        if safe then fun () ->
          st.cycles <- st.cycles + 5;
          (match
             Ebpf_maps.Sockmap.unsafe_get map
               (Int64.to_int (A.unsafe_get st.regs 1))
           with
          | None -> A.unsafe_set st.regs 0 0L
          | Some _ as r ->
            st.redir <- r;
            A.unsafe_set st.regs 0 1L);
          next ()
        else fun () ->
          st.cycles <- st.cycles + 5;
          let k = Int64.to_int (A.unsafe_get st.regs 1) in
          if k < 0 || k >= size then raise Fault;
          (match Ebpf_maps.Sockmap.unsafe_get map k with
          | None -> A.unsafe_set st.regs 0 0L
          | Some _ as r ->
            st.redir <- r;
            A.unsafe_set st.regs 0 1L);
          next ()
      | Ebpf_vm.Call Ebpf_vm.Sk_copy ->
        if safe then fun () ->
          st.cycles <- st.cycles + 5;
          st.copy_len <- Int64.to_int (A.unsafe_get st.regs 1);
          A.unsafe_set st.regs 0 (A.unsafe_get st.regs 1);
          next ()
        else fun () ->
          st.cycles <- st.cycles + 5;
          let c = Int64.to_int (A.unsafe_get st.regs 1) in
          if c < 0 || c > Ebpf.copy_limit then raise Fault;
          st.copy_len <- c;
          A.unsafe_set st.regs 0 (A.unsafe_get st.regs 1);
          next ()
      | Ebpf_vm.Exit ->
        fun () ->
          step ();
          let r0 : int64 = A.unsafe_get st.regs 0 in
          if r0 = Ebpf_vm.pass_code then
            match st.sel with None -> raise Fault | Some _ -> 1
          else if r0 = Ebpf_vm.drop_code then 2
          else if r0 = Ebpf_vm.redirect_code then
            match st.redir with None -> raise Fault | Some _ -> 3
          else 0
    in
    compiled.(pc) <- cl
  done;
  { st; entry = (if len = 0 then fall_off else compiled.(0)) }

let exec t ~flow_hash ~dst_port =
  let st = t.st in
  st.flow_hash <- flow_hash;
  st.dst_port <- dst_port;
  st.sel <- None;
  st.redir <- None;
  st.copy_len <- 0;
  st.cycles <- 0;
  match t.entry () with code -> code | exception Fault -> 0

let selected t = t.st.sel
let redirected t = t.st.redir
let copy_len t = t.st.copy_len
let last_cycles t = t.st.cycles
