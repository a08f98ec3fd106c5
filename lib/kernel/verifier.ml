(* Path-sensitive abstract interpreter over Ebpf_vm bytecode: the
   repo's model of the kernel verifier's value tracking.  See the .mli
   for the overall shape; the domain below mirrors the kernel's
   [struct bpf_reg_state] — a tnum (known bits) plus signed and
   unsigned 64-bit intervals, kept mutually consistent. *)

open Ebpf_vm

(* ------------------------------------------------------------------ *)
(* Typed verdicts                                                       *)

type check_kind =
  | Shift_amount
  | Mod_divisor
  | Map_index
  | Sk_index
  | Stack_slot
  | Sockmap_key
  | Copy_len

type check_status = Proved | Runtime_check

type site = { pc : int; kind : check_kind; status : check_status }

type error =
  | Empty_program
  | Program_too_long of { len : int; limit : int }
  | Invalid_shift_imm of { pc : int; amount : int64 }
  | Const_mod_zero of { pc : int }
  | Stack_slot_oob of { pc : int; slot : int }
  | Jump_out_of_range of { pc : int; target : int }
  | Falls_off_end of { pc : int }
  | Uninit_register of { pc : int; reg : reg }
  | Uninit_stack of { pc : int; slot : int }
  | Budget_exhausted of { pc : int; visited : int; budget : int }
  | Compile_failed of string

let error_to_string = function
  | Empty_program -> "verifier: empty program"
  | Program_too_long { len; limit } ->
    Printf.sprintf "verifier: %d insns exceeds limit %d" len limit
  | Invalid_shift_imm { pc; amount } ->
    Printf.sprintf "verifier: insn %d: shift amount %Ld outside 0..63" pc amount
  | Const_mod_zero { pc } ->
    Printf.sprintf "verifier: insn %d: mod by constant zero" pc
  | Stack_slot_oob { pc; slot } ->
    Printf.sprintf "verifier: insn %d: stack slot %d out of range" pc slot
  | Jump_out_of_range { pc; target } ->
    Printf.sprintf "verifier: insn %d: jump target %d out of range" pc target
  | Falls_off_end { pc } ->
    Printf.sprintf "verifier: insn %d: program falls off the end" pc
  | Uninit_register { pc; reg } ->
    Printf.sprintf "verifier: insn %d reads uninitialized r%d" pc (int_of_reg reg)
  | Uninit_stack { pc; slot } ->
    Printf.sprintf "verifier: insn %d reads uninitialized stack[%d]" pc slot
  | Budget_exhausted { pc; visited; budget } ->
    Printf.sprintf
      "verifier: insn-visit budget exhausted at insn %d (%d visits, budget %d): \
       cannot bound all paths (unbounded loop?)"
      pc visited budget
  | Compile_failed msg -> msg

type report = {
  insns : int;
  visited : int;
  backward_edges : int;
  sites : site list;
  proved : int;
  residual : int;
  states : string array;
}

let default_budget = 1_000_000

(* ------------------------------------------------------------------ *)
(* Known-bits domain (the kernel's tnum.c algorithms)                   *)

(* Raised when refinement proves a path infeasible. *)
exception Dead

module Tnum = struct
  (* A set of int64 values: bit i is known to be [value]'s bit i when
     [mask]'s bit i is 0, and unknown when it is 1.  Invariant:
     value land mask = 0. *)
  type t = { value : int64; mask : int64 }

  let const v = { value = v; mask = 0L }
  let unknown = { value = 0L; mask = -1L }

  let logand a b =
    let alpha = Int64.logor a.value a.mask in
    let beta = Int64.logor b.value b.mask in
    let v = Int64.logand a.value b.value in
    { value = v; mask = Int64.logand (Int64.logand alpha beta) (Int64.lognot v) }

  let logor a b =
    let v = Int64.logor a.value b.value in
    let mu = Int64.logor a.mask b.mask in
    { value = v; mask = Int64.logand mu (Int64.lognot v) }

  let logxor a b =
    let v = Int64.logxor a.value b.value in
    let mu = Int64.logor a.mask b.mask in
    { value = Int64.logand v (Int64.lognot mu); mask = mu }

  let add a b =
    let sm = Int64.add a.mask b.mask in
    let sv = Int64.add a.value b.value in
    let sigma = Int64.add sm sv in
    let chi = Int64.logxor sigma sv in
    let mu = Int64.logor chi (Int64.logor a.mask b.mask) in
    { value = Int64.logand sv (Int64.lognot mu); mask = mu }

  let sub a b =
    let dv = Int64.sub a.value b.value in
    let alpha = Int64.add dv a.mask in
    let beta = Int64.sub dv b.mask in
    let chi = Int64.logxor alpha beta in
    let mu = Int64.logor chi (Int64.logor a.mask b.mask) in
    { value = Int64.logand dv (Int64.lognot mu); mask = mu }

  let lshift t n =
    { value = Int64.shift_left t.value n; mask = Int64.shift_left t.mask n }

  let rshift t n =
    {
      value = Int64.shift_right_logical t.value n;
      mask = Int64.shift_right_logical t.mask n;
    }

  (* shift-and-add over the multiplier's bits: known-1 bits contribute
     a shifted copy of [b], unknown bits a shifted copy of [b]'s
     possible bits (as pure mask) *)
  let mul a b =
    let acc_v = Int64.mul a.value b.value in
    let rec go a b acc_m =
      if Int64.equal a.value 0L && Int64.equal a.mask 0L then acc_m
      else
        let acc_m =
          if not (Int64.equal (Int64.logand a.value 1L) 0L) then
            add acc_m { value = 0L; mask = b.mask }
          else if not (Int64.equal (Int64.logand a.mask 1L) 0L) then
            add acc_m { value = 0L; mask = Int64.logor b.value b.mask }
          else acc_m
        in
        go (rshift a 1) (lshift b 1) acc_m
    in
    add (const acc_v) (go a b (const 0L))

  (* intersection; Dead if the known bits disagree *)
  let inter a b =
    let disagree =
      Int64.logand (Int64.logxor a.value b.value)
        (Int64.lognot (Int64.logor a.mask b.mask))
    in
    if not (Int64.equal disagree 0L) then raise Dead;
    let mask = Int64.logand a.mask b.mask in
    let value = Int64.logand (Int64.logor a.value b.value) (Int64.lognot mask) in
    { value; mask }

  let union a b =
    let mu =
      Int64.logor (Int64.logor a.mask b.mask) (Int64.logxor a.value b.value)
    in
    { value = Int64.logand a.value (Int64.lognot mu); mask = mu }

  let subset ~outer ~inner =
    Int64.equal (Int64.logand inner.mask (Int64.lognot outer.mask)) 0L
    && Int64.equal
         (Int64.logand (Int64.logxor inner.value outer.value)
            (Int64.lognot outer.mask))
         0L
end

(* ------------------------------------------------------------------ *)
(* Abstract values: tnum + signed interval + unsigned interval          *)

type aval = {
  tn : Tnum.t;
  smin : int64;
  smax : int64;
  umin : int64;  (* unsigned bounds, stored as raw bit patterns *)
  umax : int64;
}

let s64_min = Int64.min_int
let s64_max = Int64.max_int
let u64_max = -1L

let ucmp = Int64.unsigned_compare
let min_s a b = if Int64.compare a b <= 0 then a else b
let max_s a b = if Int64.compare a b >= 0 then a else b
let min_u a b = if ucmp a b <= 0 then a else b
let max_u a b = if ucmp a b >= 0 then a else b

(* Propagate information between the three views and detect
   contradictions (kernel __reg_deduce_bounds).  Raises Dead when the
   views are jointly unsatisfiable. *)
let norm a =
  let umin = ref (max_u a.umin a.tn.Tnum.value) in
  let umax = ref (min_u a.umax (Int64.logor a.tn.Tnum.value a.tn.Tnum.mask)) in
  let smin = ref a.smin and smax = ref a.smax in
  (* a signed range on one side of zero is an unsigned range too *)
  if Int64.compare !smin 0L >= 0 || Int64.compare !smax 0L < 0 then begin
    umin := max_u !umin !smin;
    umax := min_u !umax !smax
  end;
  (* an unsigned range within one signed half pins the signed view *)
  if ucmp !umax s64_max <= 0 || ucmp !umin s64_max > 0 then begin
    smin := max_s !smin !umin;
    smax := min_s !smax !umax
  end;
  if Int64.compare !smin !smax > 0 || ucmp !umin !umax > 0 then raise Dead;
  let tn =
    if Int64.equal !umin !umax then Tnum.inter a.tn (Tnum.const !umin) else a.tn
  in
  { tn; smin = !smin; smax = !smax; umin = !umin; umax = !umax }

let top =
  { tn = Tnum.unknown; smin = s64_min; smax = s64_max; umin = 0L; umax = u64_max }

let const_v v = { tn = Tnum.const v; smin = v; smax = v; umin = v; umax = v }

(* Ld_flow_hash / Ld_dst_port: Int64.of_int of an arbitrary OCaml int,
   so anything in [-2^62, 2^62-1].  Ebpf.ctx is publicly constructible;
   assuming less would let an undischarged fault slip past the fast
   path. *)
let ctx_val =
  norm
    {
      tn = Tnum.unknown;
      smin = Int64.neg (Int64.shift_left 1L 62);
      smax = Int64.sub (Int64.shift_left 1L 62) 1L;
      umin = 0L;
      umax = u64_max;
    }

let is_singleton a = Int64.equal a.smin a.smax

(* --- transfer functions ------------------------------------------- *)

let sadd_ovf x y =
  let r = Int64.add x y in
  Int64.compare x 0L < 0 = (Int64.compare y 0L < 0)
  && Int64.compare r 0L < 0 <> (Int64.compare x 0L < 0)

let ssub_ovf x y =
  let r = Int64.sub x y in
  Int64.compare x 0L < 0 <> (Int64.compare y 0L < 0)
  && Int64.compare r 0L < 0 <> (Int64.compare x 0L < 0)

let v_add a b =
  let tn = Tnum.add a.tn b.tn in
  let smin, smax =
    if sadd_ovf a.smin b.smin || sadd_ovf a.smax b.smax then (s64_min, s64_max)
    else (Int64.add a.smin b.smin, Int64.add a.smax b.smax)
  in
  let umin, umax =
    let lo = Int64.add a.umin b.umin and hi = Int64.add a.umax b.umax in
    if ucmp lo a.umin < 0 || ucmp hi a.umax < 0 then (0L, u64_max) else (lo, hi)
  in
  norm { tn; smin; smax; umin; umax }

let v_sub a b =
  let tn = Tnum.sub a.tn b.tn in
  let smin, smax =
    if ssub_ovf a.smin b.smax || ssub_ovf a.smax b.smin then (s64_min, s64_max)
    else (Int64.sub a.smin b.smax, Int64.sub a.smax b.smin)
  in
  let umin, umax =
    if ucmp a.umin b.umax < 0 || ucmp a.umax b.umin < 0 then (0L, u64_max)
    else (Int64.sub a.umin b.umax, Int64.sub a.umax b.umin)
  in
  norm { tn; smin; smax; umin; umax }

let v_mul a b =
  let tn = Tnum.mul a.tn b.tn in
  let u32_max = 0xFFFFFFFFL in
  let umin, umax =
    (* no 64-bit wrap when both operands fit in 32 bits *)
    if ucmp a.umax u32_max <= 0 && ucmp b.umax u32_max <= 0 then
      (Int64.mul a.umin b.umin, Int64.mul a.umax b.umax)
    else (0L, u64_max)
  in
  norm { tn; smin = s64_min; smax = s64_max; umin; umax }

let v_and a b =
  norm
    {
      tn = Tnum.logand a.tn b.tn;
      smin = s64_min;
      smax = s64_max;
      umin = 0L;
      umax = min_u a.umax b.umax;
    }

let v_or a b =
  norm
    {
      tn = Tnum.logor a.tn b.tn;
      smin = s64_min;
      smax = s64_max;
      umin = max_u a.umin b.umin;
      umax = u64_max;
    }

let v_xor a b =
  norm
    {
      tn = Tnum.logxor a.tn b.tn;
      smin = s64_min;
      smax = s64_max;
      umin = 0L;
      umax = u64_max;
    }

let v_lsh_const a s =
  if s = 0 then a
  else
    let umin, umax =
      if Int64.equal (Int64.shift_right_logical a.umax (64 - s)) 0L then
        (Int64.shift_left a.umin s, Int64.shift_left a.umax s)
      else (0L, u64_max)
    in
    norm
      { tn = Tnum.lshift a.tn s; smin = s64_min; smax = s64_max; umin; umax }

let v_rsh_const a s =
  if s = 0 then a
  else
    norm
      {
        tn = Tnum.rshift a.tn s;
        smin = s64_min;
        smax = s64_max;
        umin = Int64.shift_right_logical a.umin s;
        umax = Int64.shift_right_logical a.umax s;
      }

(* Int64.rem: truncated signed remainder *)
let v_mod a b =
  if Int64.compare b.smin 1L >= 0 && Int64.compare a.smin 0L >= 0 then
    let hi = min_s a.smax (Int64.sub b.smax 1L) in
    norm { tn = Tnum.unknown; smin = 0L; smax = hi; umin = 0L; umax = hi }
  else top

let eval_alu op a b =
  match op with
  | Add -> v_add a b
  | Sub -> v_sub a b
  | Mul -> v_mul a b
  | And -> v_and a b
  | Or -> v_or a b
  | Xor -> v_xor a b
  | Lsh ->
    if is_singleton b && Int64.compare b.smin 0L >= 0 && Int64.compare b.smin 63L <= 0
    then v_lsh_const a (Int64.to_int b.smin)
    else top
  | Rsh ->
    if is_singleton b && Int64.compare b.smin 0L >= 0 && Int64.compare b.smin 63L <= 0
    then v_rsh_const a (Int64.to_int b.smin)
    else top
  | Mod -> v_mod a b

(* reciprocal_scale (hash * n) >> 32 over OCaml's 63-bit ints: always
   in [0, 2^31-1]; and in [0, n-1] when 1 <= n <= 2^30 (so the 32-bit
   truncations in Bitops are exact) *)
let rs_result n =
  if Int64.compare n.smin 1L >= 0 && Int64.compare n.smax 0x40000000L <= 0 then
    let hi = Int64.sub n.smax 1L in
    norm { tn = Tnum.unknown; smin = 0L; smax = hi; umin = 0L; umax = hi }
  else
    norm
      {
        tn = Tnum.unknown;
        smin = 0L;
        smax = 0x7FFFFFFFL;
        umin = 0L;
        umax = 0x7FFFFFFFL;
      }

(* --- branch refinement -------------------------------------------- *)

let meet a b =
  let tn = Tnum.inter a.tn b.tn in
  norm
    {
      tn;
      smin = max_s a.smin b.smin;
      smax = min_s a.smax b.smax;
      umin = max_u a.umin b.umin;
      umax = min_u a.umax b.umax;
    }

(* remove the single value [c] from [x] where interval endpoints allow *)
let exclude x c =
  if Int64.equal x.smin c && Int64.equal x.smax c then raise Dead;
  if Int64.equal x.umin c && Int64.equal x.umax c then raise Dead;
  let x = if Int64.equal x.smin c then { x with smin = Int64.add c 1L } else x in
  let x = if Int64.equal x.smax c then { x with smax = Int64.sub c 1L } else x in
  let x = if Int64.equal x.umin c then { x with umin = Int64.add c 1L } else x in
  let x = if Int64.equal x.umax c then { x with umax = Int64.sub c 1L } else x in
  norm x

(* Narrow (a, b) under the assumption that the (signed, matching the
   interpreter's Int64.compare) condition [a op b] holds.  Dead when it
   cannot. *)
let rec refine op a b =
  match op with
  | Jeq ->
    let m = meet a b in
    (m, m)
  | Jne ->
    let a = if is_singleton b then exclude a b.smin else a in
    let b = if is_singleton a then exclude b a.smin else b in
    (a, b)
  | Jlt ->
    if Int64.equal b.smax s64_min then raise Dead;
    if Int64.equal a.smin s64_max then raise Dead;
    let a' = norm { a with smax = min_s a.smax (Int64.sub b.smax 1L) } in
    let b' = norm { b with smin = max_s b.smin (Int64.add a.smin 1L) } in
    (a', b')
  | Jle ->
    let a' = norm { a with smax = min_s a.smax b.smax } in
    let b' = norm { b with smin = max_s b.smin a.smin } in
    (a', b')
  | Jgt ->
    let b', a' = refine Jlt b a in
    (a', b')
  | Jge ->
    let b', a' = refine Jle b a in
    (a', b')

let negate = function
  | Jeq -> Jne
  | Jne -> Jeq
  | Jlt -> Jge
  | Jge -> Jlt
  | Jle -> Jgt
  | Jgt -> Jle

(* ------------------------------------------------------------------ *)
(* Machine states                                                       *)

type rv = Uninit | V of aval

type st = { regs : rv array; slots : rv array }

let init_st () =
  { regs = Array.make 10 Uninit; slots = Array.make max_stack_slots Uninit }

let copy_st s = { regs = Array.copy s.regs; slots = Array.copy s.slots }

let aval_leq n o =
  Int64.compare o.smin n.smin <= 0
  && Int64.compare n.smax o.smax <= 0
  && ucmp o.umin n.umin <= 0
  && ucmp n.umax o.umax <= 0
  && Tnum.subset ~outer:o.tn ~inner:n.tn

(* [o Uninit] is fine: the completed exploration from [o] never read
   that cell (it would have been rejected), so neither will any path
   from the narrower state. *)
let rv_leq n o =
  match (n, o) with
  | _, Uninit -> true
  | Uninit, V _ -> false
  | V n, V o -> aval_leq n o

let st_leq n o =
  let rec go a b i =
    i >= Array.length a || (rv_leq a.(i) b.(i) && go a b (i + 1))
  in
  go n.regs o.regs 0 && go n.slots o.slots 0

(* --- state rendering (hermes_sim verify --dump) -------------------- *)

let aval_to_string a =
  if is_singleton a then Int64.to_string a.smin
  else begin
    let buf = Buffer.create 32 in
    let lo = if Int64.equal a.smin s64_min then "min" else Int64.to_string a.smin in
    let hi = if Int64.equal a.smax s64_max then "max" else Int64.to_string a.smax in
    Buffer.add_string buf (Printf.sprintf "[%s;%s]" lo hi);
    if
      Int64.compare a.smin 0L < 0
      && (not (Int64.equal a.umin 0L) || not (Int64.equal a.umax u64_max))
    then Buffer.add_string buf (Printf.sprintf " u[%Lu;%Lu]" a.umin a.umax);
    if not (Int64.equal a.tn.Tnum.mask (-1L)) then
      Buffer.add_string buf
        (Printf.sprintf " tn=%Lx/%Lx" a.tn.Tnum.value a.tn.Tnum.mask);
    Buffer.contents buf
  end

type dval = { mutable maybe_uninit : bool; mutable joined : aval option }

type dstate = { dregs : dval array; dslots : dval array; mutable dseen : bool }

let new_dstate () =
  {
    dregs = Array.init 10 (fun _ -> { maybe_uninit = false; joined = None });
    dslots =
      Array.init max_stack_slots (fun _ -> { maybe_uninit = false; joined = None });
    dseen = false;
  }

let v_union a b =
  norm
    {
      tn = Tnum.union a.tn b.tn;
      smin = min_s a.smin b.smin;
      smax = max_s a.smax b.smax;
      umin = min_u a.umin b.umin;
      umax = max_u a.umax b.umax;
    }

let join_dstate d st =
  d.dseen <- true;
  let cell dv = function
    | Uninit -> dv.maybe_uninit <- true
    | V a ->
      dv.joined <- Some (match dv.joined with None -> a | Some o -> v_union o a)
  in
  Array.iteri (fun i r -> cell d.dregs.(i) r) st.regs;
  Array.iteri (fun i r -> cell d.dslots.(i) r) st.slots

let render_dstate d =
  if not d.dseen then "unreached"
  else begin
    let buf = Buffer.create 64 in
    let put prefix i dv =
      match dv.joined with
      | None -> ()
      | Some a ->
        if Buffer.length buf > 0 then Buffer.add_char buf ' ';
        Buffer.add_string buf
          (Printf.sprintf "%s%d%s=%s" prefix i
             (if dv.maybe_uninit then "?" else "")
             (aval_to_string a))
    in
    Array.iteri (fun i dv -> put "r" i dv) d.dregs;
    Array.iteri (fun i dv -> put "s" i dv) d.dslots;
    Buffer.contents buf
  end

(* ------------------------------------------------------------------ *)
(* The walk                                                             *)

exception Reject of error

type task = Explore of int * st | Completed of int * st

(* Cap on remembered completed states per instruction: pruning is a
   best-effort accelerator, correctness never depends on it. *)
let max_completed = 32

let verify ?(name = "bytecode") ?(budget = default_budget)
    ?(collect_states = false) (code : program) =
  let len = Array.length code in
  let visited = ref 0 in
  let backward_edges = ref 0 in
  let sites : (int, check_kind * bool ref) Hashtbl.t = Hashtbl.create 16 in
  let analyze () =
    if len = 0 then raise (Reject Empty_program);
    if len > max_insns then
      raise (Reject (Program_too_long { len; limit = max_insns }));
    (* structural pass (kernel check_cfg style): stack-slot and
       jump-target ranges hold even in unreachable code *)
    let is_target = Array.make len false in
    Array.iteri
      (fun i insn ->
        match insn with
        | St_stack (slot, _) | Ld_stack (_, slot) ->
          if slot < 0 || slot >= max_stack_slots then
            raise (Reject (Stack_slot_oob { pc = i; slot }))
        | Jmp_imm (_, _, _, off) | Jmp_reg (_, _, _, off) | Ja off ->
          let target = i + 1 + off in
          if target < 0 || target >= len then
            raise (Reject (Jump_out_of_range { pc = i; target }));
          is_target.(target) <- true;
          if off < 0 then incr backward_edges
        | _ -> ())
      code;
    let note_site pc kind ok =
      match Hashtbl.find_opt sites pc with
      | Some (_, proved) -> if not ok then proved := false
      | None -> Hashtbl.add sites pc (kind, ref ok)
    in
    let completed : st list array = Array.make len [] in
    let completed_n = Array.make len 0 in
    let dump =
      if collect_states then Some (Array.init len (fun _ -> new_dstate ()))
      else None
    in
    let work : task Stack.t = Stack.create () in
    (* Straight-line abstract execution of one path segment; branch
       successors and jump targets become new Explore frames. *)
    let walk pc0 st0 =
      let pc = ref pc0 in
      let st = ref st0 in
      let running = ref true in
      let getr at r =
        match (!st).regs.(int_of_reg r) with
        | Uninit -> raise (Reject (Uninit_register { pc = at; reg = r }))
        | V a -> a
      in
      let setr r a = (!st).regs.(int_of_reg r) <- V a in
      let clobber_caller_saved () =
        let regs = (!st).regs in
        regs.(1) <- Uninit;
        regs.(2) <- Uninit;
        regs.(3) <- Uninit;
        regs.(4) <- Uninit;
        regs.(5) <- Uninit
      in
      while !running do
        let i = !pc in
        incr visited;
        if !visited > budget then
          raise (Reject (Budget_exhausted { pc = i; visited = !visited; budget }));
        (match dump with Some d -> join_dstate d.(i) !st | None -> ());
        let goto t =
          (* entering a labeled block: end the segment so the target
             gets its own subsumption check and completion record *)
          Stack.push (Explore (t, !st)) work;
          running := false
        in
        let step () =
          let next = i + 1 in
          if next >= len then raise (Reject (Falls_off_end { pc = i }))
          else if is_target.(next) then goto next
          else pc := next
        in
        (* both-feasible conditional: fork the taken state, continue on
           the fall-through in place *)
        let branch t op r1 a b r2 =
          let taken = try Some (refine op a b) with Dead -> None in
          let fall = try Some (refine (negate op) a b) with Dead -> None in
          let set_pair (a', b') =
            (!st).regs.(int_of_reg r1) <- V a';
            match r2 with
            | Some r2 -> (!st).regs.(int_of_reg r2) <- V b'
            | None -> ()
          in
          match (taken, fall) with
          | Some tr, Some fr ->
            let saved = copy_st !st in
            set_pair tr;
            Stack.push (Explore (t, !st)) work;
            st := saved;
            set_pair fr;
            step ()
          | Some tr, None ->
            set_pair tr;
            goto t
          | None, Some fr ->
            set_pair fr;
            step ()
          | None, None ->
            (* both directions infeasible: the path itself is dead *)
            running := false
        in
        (* A [Dead] escaping an ALU bounds normalization (rather than a
           branch refinement, which [branch] already handles) means the
           segment's abstract state is self-contradictory: the path is
           unreachable, so stop walking it instead of leaking the
           internal exception to the caller. *)
        try
          match code.(i) with
        | Mov_imm (d, v) ->
          setr d (const_v v);
          step ()
        | Mov_reg (d, s) ->
          setr d (getr i s);
          step ()
        | Alu_imm (op, d, v) ->
          let a = getr i d in
          (match op with
          | Lsh | Rsh ->
            if Int64.compare v 0L < 0 || Int64.compare v 63L > 0 then
              raise (Reject (Invalid_shift_imm { pc = i; amount = v }));
            note_site i Shift_amount true
          | Mod ->
            if Int64.equal v 0L then raise (Reject (Const_mod_zero { pc = i }));
            note_site i Mod_divisor true
          | _ -> ());
          setr d (eval_alu op a (const_v v));
          step ()
        | Alu_reg (op, d, s) ->
          let a = getr i d and b = getr i s in
          (match op with
          | Lsh | Rsh ->
            note_site i Shift_amount
              (Int64.compare b.smin 0L >= 0 && Int64.compare b.smax 63L <= 0)
          | Mod ->
            (* nonzero: unsigned lower bound, or a known-1 bit *)
            note_site i Mod_divisor
              (ucmp b.umin 1L >= 0 || not (Int64.equal b.tn.Tnum.value 0L))
          | _ -> ());
          setr d (eval_alu op a b);
          step ()
        | Ld_flow_hash d | Ld_dst_port d ->
          setr d ctx_val;
          step ()
        | St_stack (slot, r) ->
          note_site i Stack_slot true;
          (!st).slots.(slot) <- V (getr i r);
          step ()
        | Ld_stack (r, slot) ->
          note_site i Stack_slot true;
          (match (!st).slots.(slot) with
          | Uninit -> raise (Reject (Uninit_stack { pc = i; slot }))
          | V a -> setr r a);
          step ()
        | Call h ->
          (match h with
          | Map_lookup map ->
            let k = getr i R1 in
            let size = Ebpf_maps.Array_map.size map in
            note_site i Map_index
              (Int64.compare k.smin 0L >= 0
              && Int64.compare k.smax (Int64.of_int (size - 1)) <= 0);
            clobber_caller_saved ();
            setr R0 top
          | Sk_select sa ->
            let k = getr i R1 in
            let size = Ebpf_maps.Sockarray.size sa in
            note_site i Sk_index
              (Int64.compare k.smin 0L >= 0
              && Int64.compare k.smax (Int64.of_int (size - 1)) <= 0);
            clobber_caller_saved ();
            setr R0 (const_v 0L)
          | Reciprocal_scale ->
            ignore (getr i R1);
            let n = getr i R2 in
            let res = rs_result n in
            clobber_caller_saved ();
            setr R0 res
          | Sk_redirect map ->
            let k = getr i R1 in
            let size = Ebpf_maps.Sockmap.size map in
            note_site i Sockmap_key
              (Int64.compare k.smin 0L >= 0
              && Int64.compare k.smax (Int64.of_int (size - 1)) <= 0);
            clobber_caller_saved ();
            (* r0 is the occupancy flag: 0 (unoccupied) or 1 (hit) *)
            setr R0
              (norm { tn = Tnum.unknown; smin = 0L; smax = 1L; umin = 0L; umax = 1L })
          | Sk_copy ->
            let c = getr i R1 in
            let res = c in
            note_site i Copy_len
              (Int64.compare c.smin 0L >= 0
              && Int64.compare c.smax (Int64.of_int Ebpf.copy_limit) <= 0);
            clobber_caller_saved ();
            (* r0 := r1 (the accepted copy length) *)
            setr R0 res);
          step ()
        | Exit ->
          ignore (getr i R0);
          running := false
        | Ja off -> goto (i + 1 + off)
        | Jmp_imm (op, r, v, off) ->
          let a = getr i r in
          branch (i + 1 + off) op r a (const_v v) None
        | Jmp_reg (op, ra, rb, off) ->
          if int_of_reg ra = int_of_reg rb then begin
            (* reflexive comparison is statically decided *)
            ignore (getr i ra);
            match op with
            | Jeq | Jle | Jge -> goto (i + 1 + off)
            | Jne | Jlt | Jgt -> step ()
          end
          else
            let a = getr i ra and b = getr i rb in
            branch (i + 1 + off) op ra a b (Some rb)
        with Dead -> running := false
      done
    in
    Stack.push (Explore (0, init_st ())) work;
    while not (Stack.is_empty work) do
      match Stack.pop work with
      | Completed (pc, s) ->
        if completed_n.(pc) < max_completed then begin
          completed.(pc) <- s :: completed.(pc);
          completed_n.(pc) <- completed_n.(pc) + 1
        end
      | Explore (pc, s) ->
        if not (List.exists (fun o -> st_leq s o) completed.(pc)) then begin
          Stack.push (Completed (pc, s)) work;
          walk pc (copy_st s)
        end
    done;
    let proved_arr = Array.make len true in
    Hashtbl.iter
      (fun pc (_, ok) -> if not !ok then proved_arr.(pc) <- false)
      sites;
    let site_list =
      Hashtbl.fold
        (fun pc (kind, ok) acc ->
          { pc; kind; status = (if !ok then Proved else Runtime_check) } :: acc)
        sites []
      |> List.sort (fun x y -> compare x.pc y.pc)
    in
    let proved_sites =
      List.length (List.filter (fun s -> s.status = Proved) site_list)
    in
    let states =
      match dump with
      | None -> [||]
      | Some d -> Array.map render_dstate d
    in
    let report =
      {
        insns = len;
        visited = !visited;
        backward_edges = !backward_edges;
        sites = site_list;
        proved = proved_sites;
        residual = List.length site_list - proved_sites;
        states;
      }
    in
    (certify code ~proved:proved_arr, report)
  in
  let result = try Ok (analyze ()) with Reject e -> Error e in
  (if Trace.enabled () then
     let accepted, proved, residual, reason =
       match result with
       | Ok (_, r) -> (true, r.proved, r.residual, "")
       | Error e -> (false, 0, 0, error_to_string e)
     in
     Trace.emit
       (Trace.Verifier_verdict
          {
            prog = name;
            backend = "bytecode";
            accepted;
            insns = len;
            visited = !visited;
            proved;
            residual;
            reason;
          }));
  result

let compile_and_verify ?budget (prog : Ebpf.prog) =
  match compile prog with
  | Error msg -> Error (Compile_failed msg)
  | Ok code -> (
    match verify ~name:prog.Ebpf.name ?budget code with
    | Ok (v, _) -> Ok v
    | Error e -> Error e)
