type expr =
  | Const of int64
  | Flow_hash
  | Dst_port
  | Var of string
  | Let of string * expr * expr
  | Lookup of Ebpf_maps.Array_map.t * expr
  | Popcount of expr
  | Find_nth_set of expr * expr
  | Reciprocal_scale of expr * expr
  | Band of expr * expr
  | Bor of expr * expr
  | Bxor of expr * expr
  | Add of expr * expr
  | Sub of expr * expr
  | Shl of expr * expr
  | Shr of expr * expr
  | Mod of expr * expr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type ret =
  | Select of Ebpf_maps.Sockarray.t * expr
  | Fallback
  | Drop
  | If of cmp * expr * expr * ret * ret
  | Let_ret of string * expr * ret
  | Redirect of Ebpf_maps.Sockmap.t * expr * expr * ret

type prog = { name : string; body : ret }

(* bpf_sk_copy bound: at most one 64 KiB socket buffer's worth of
   payload is pulled up to userspace per redirect. *)
let copy_limit = 65536

let max_insns = 4096
let max_depth = 64

type ctx = { flow_hash : int; dst_port : int }

type outcome =
  | Selected of Socket.t
  | Fell_back
  | Dropped
  | Redirected of { conn : int; target : int; copy : int }

(* ------------------------------------------------------------------ *)
(* Compiled form.

   [verify] lowers the checked body, in the same walk that sizes it,
   into threaded code over an unboxed 64-bit register file: a [Bytes.t]
   read and written 8 bytes at a time by the raw primitives below, as
   [Engine.Rng] holds its state, so no value is ever boxed.  Register 0
   holds the flow hash and register 1 the destination port; every
   constant has its own register, loaded once at compile time and never
   written; every other node writes its result to a register of its
   own, which only its parent reads.  A constant, a context word or a
   [Let]-bound name therefore compiles to a register offset and no code.
   A tree runs each node at most once per packet, so the file is never
   re-zeroed.

   The nodes with code become steps in evaluation order, one closure
   each, that do the node's work and tail-call the next step.  A chain
   ends in its return's verdict: the exit code, or, for [If] and a
   [Redirect] hit, the entry of the branch's own chain.

   Cycles are charged as the tree-walking oracle charges them
   ([Oracles.Ebpf_ref]): one per leaf, each node's own cost before its
   own fault check, in evaluation order, so a faulting run reports the
   same partial count.  A leaf has no code: its cycle is charged by the
   next step, before that step's own fault check. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type state = {
  mutable regs : Bytes.t;  (* sized once the walk has counted the registers *)
  mutable cycles : int;
  mutable sel : Socket.t option;  (* the sockarray's own [Some] cell *)
  mutable redir : Ebpf_maps.Sockmap.entry option;  (* the sockmap's own cell *)
  mutable copy_len : int;
}

type verified = {
  vname : string;
  insns : int;
  st : state;
  entry : unit -> int;  (* the exit code: 1 select, 0 fallback, 2 drop, 3 redirect *)
}

exception Unbound of string
exception Fault

type op =
  | Lookup_op of Ebpf_maps.Array_map.t * int  (* the map and its size *)
  | Popcount_op
  | Find_nth_op
  | Recip_op
  | Band_op
  | Bor_op
  | Bxor_op
  | Add_op
  | Sub_op
  | Shl_op
  | Shr_op
  | Mod_op

(* A node's step before it is threaded: its operator, operand registers
   [a] and [b] (a unary operator ignores [b]), result register, and the
   cycles it charges before its own fault check. *)
type step = { op : op; a : int; b : int; dst : int; cost : int }

type compiler = {
  st : state;
  mutable next : int;  (* registers allocated *)
  mutable consts : (int * int64) list;
  mutable steps : step list;  (* the chain being built, newest first *)
  mutable pending : int;  (* cycles its next step or verdict charges *)
  mutable insns : int;  (* nodes walked: the program's size *)
  mutable depth : int;  (* the deepest node walked, the root at 1 *)
}

let charge st c = st.cycles <- st.cycles + c

(* Count a node [d] deep. *)
let visit c d =
  c.insns <- c.insns + 1;
  if d > c.depth then c.depth <- d

let fresh c =
  let off = c.next lsl 3 in
  c.next <- c.next + 1;
  off

(* A leaf is its register [off]; its cycle waits for the next step. *)
let leaf c off =
  c.pending <- c.pending + 1;
  off

let emit c op cost a b =
  let dst = fresh c in
  c.steps <- { op; a; b; dst; cost = c.pending + cost } :: c.steps;
  c.pending <- 0;
  dst

let rec reg_of env name =
  match env with
  | [] -> raise (Unbound name)
  | (bound, off) :: rest -> if String.equal bound name then off else reg_of rest name

(* An expression [d] deep: its steps join the chain being built, and
   the result is the register its value lands in. *)
let rec expr c env d e =
  visit c d;
  match e with
  | Const v ->
    let off = fresh c in
    c.consts <- (off, v) :: c.consts;
    leaf c off
  | Flow_hash -> leaf c 0
  | Dst_port -> leaf c 8
  | Var name -> leaf c (reg_of env name)
  | Let (name, bound, body) ->
    let b = expr c env (d + 1) bound in
    expr c ((name, b) :: env) (d + 1) body
  | Lookup (map, e) -> un c env d (Lookup_op (map, Ebpf_maps.Array_map.size map)) 5 e
  | Popcount e -> un c env d Popcount_op 4 e
  | Find_nth_set (a, b) -> bin c env d Find_nth_op 12 a b
  | Reciprocal_scale (a, b) -> bin c env d Recip_op 2 a b
  | Band (a, b) -> bin c env d Band_op 1 a b
  | Bor (a, b) -> bin c env d Bor_op 1 a b
  | Bxor (a, b) -> bin c env d Bxor_op 1 a b
  | Add (a, b) -> bin c env d Add_op 1 a b
  | Sub (a, b) -> bin c env d Sub_op 1 a b
  | Shl (a, b) -> bin c env d Shl_op 1 a b
  | Shr (a, b) -> bin c env d Shr_op 1 a b
  | Mod (a, b) -> bin c env d Mod_op 2 a b

and un c env d op cost e =
  let x = expr c env (d + 1) e in
  emit c op cost x x

and bin c env d op cost a b =
  let x = expr c env (d + 1) a in
  let y = expr c env (d + 1) b in
  emit c op cost x y

let[@inline] shift_amount r b =
  let s = Int64.to_int (get64 r b) in
  if s < 0 || s > 63 then raise_notrace Fault;
  s

(* One step: charge, the node's work, then the rest of the chain. *)
let thread_step st { op; a; b; dst; cost } next =
  match op with
  | Lookup_op (map, size) ->
    fun () ->
      charge st cost;
      let k = Int64.to_int (get64 st.regs a) in
      if k < 0 || k >= size then raise_notrace Fault;
      set64 st.regs dst (Ebpf_maps.Array_map.unsafe_lookup map k);
      next ()
  | Popcount_op ->
    fun () ->
      charge st cost;
      let v = get64 st.regs a in
      set64 st.regs dst
        (Int64.of_int
           (Bitops.popcount32 (Int64.to_int v land 0xFFFFFFFF)
           + Bitops.popcount32 (Int64.to_int (Int64.shift_right_logical v 32))));
      next ()
  | Find_nth_op ->
    fun () ->
      charge st cost;
      let bm = get64 st.regs a in
      set64 st.regs dst
        (Int64.of_int
           (Bitops.find_nth_set_halves
              ~lo:(Int64.to_int bm land 0xFFFFFFFF)
              ~hi:(Int64.to_int (Int64.shift_right_logical bm 32))
              (Int64.to_int (get64 st.regs b))));
      next ()
  | Recip_op ->
    fun () ->
      charge st cost;
      let n = Int64.to_int (get64 st.regs b) in
      if n <= 0 then raise_notrace Fault;
      set64 st.regs dst
        (Int64.of_int
           (Bitops.reciprocal_scale ~hash:(Int64.to_int (get64 st.regs a)) ~n));
      next ()
  | Band_op ->
    fun () ->
      charge st cost;
      set64 st.regs dst (Int64.logand (get64 st.regs a) (get64 st.regs b));
      next ()
  | Bor_op ->
    fun () ->
      charge st cost;
      set64 st.regs dst (Int64.logor (get64 st.regs a) (get64 st.regs b));
      next ()
  | Bxor_op ->
    fun () ->
      charge st cost;
      set64 st.regs dst (Int64.logxor (get64 st.regs a) (get64 st.regs b));
      next ()
  | Add_op ->
    fun () ->
      charge st cost;
      set64 st.regs dst (Int64.add (get64 st.regs a) (get64 st.regs b));
      next ()
  | Sub_op ->
    fun () ->
      charge st cost;
      set64 st.regs dst (Int64.sub (get64 st.regs a) (get64 st.regs b));
      next ()
  | Shl_op ->
    fun () ->
      charge st cost;
      let s = shift_amount st.regs b in
      set64 st.regs dst (Int64.shift_left (get64 st.regs a) s);
      next ()
  | Shr_op ->
    fun () ->
      charge st cost;
      let s = shift_amount st.regs b in
      set64 st.regs dst (Int64.shift_right_logical (get64 st.regs a) s);
      next ()
  | Mod_op ->
    fun () ->
      charge st cost;
      let d = get64 st.regs b in
      (* BPF_MOD: a zero divisor faults *)
      if Int64.equal d 0L then raise_notrace Fault;
      set64 st.regs dst (Int64.rem (get64 st.regs a) d);
      next ()

(* Close the chain being built: its verdict, charging the pending
   cycles with its own [cost], and its steps threaded onto it back to
   front.  The next chain starts empty. *)
let close c cost verdict =
  let last = verdict (c.pending + cost) in
  let entry = List.fold_left (fun next s -> thread_step c.st s next) last c.steps in
  c.steps <- [];
  c.pending <- 0;
  entry

(* [If]'s compare as a mask over the three orderings: bit 0 less,
   bit 1 equal, bit 2 greater. *)
let cmp_mask = function Eq -> 2 | Ne -> 5 | Lt -> 1 | Le -> 3 | Gt -> 4 | Ge -> 6

let[@inline] holds mask (x : int64) (y : int64) =
  (mask lsr (1 + Bool.to_int (x > y) - Bool.to_int (x < y))) land 1 <> 0

(* Compile a branch as a chain of its own: the chain in progress is
   set aside and put back after. *)
let aside c f =
  let steps = c.steps and pending = c.pending in
  c.steps <- [];
  c.pending <- 0;
  let r = f () in
  c.steps <- steps;
  c.pending <- pending;
  r

(* A return [d] deep closes the chain in progress, which its enclosing
   [Let_ret]s and its own operands began, and yields the chain's
   entry. *)
let rec ret c env d r =
  visit c d;
  match r with
  | Fallback ->
    let st = c.st in
    close c 1 (fun cost () ->
        charge st cost;
        0)
  | Drop ->
    let st = c.st in
    close c 1 (fun cost () ->
        charge st cost;
        2)
  | Select (sa, e) ->
    let i = expr c env (d + 1) e in
    let st = c.st and size = Ebpf_maps.Sockarray.size sa in
    close c 3 (fun cost () ->
        let k = Int64.to_int (get64 st.regs i) in
        charge st cost;
        if k < 0 || k >= size then raise_notrace Fault;
        match Ebpf_maps.Sockarray.unsafe_get sa k with
        | None -> raise_notrace Fault
        | Some _ as cell ->
          st.sel <- cell;
          1)
  | If (cmp, a, b, then_, else_) ->
    let ra = expr c env (d + 1) a in
    let rb = expr c env (d + 1) b in
    let t = aside c (fun () -> ret c env (d + 1) then_) in
    let f = aside c (fun () -> ret c env (d + 1) else_) in
    let st = c.st and mask = cmp_mask cmp in
    close c 1 (fun cost () ->
        charge st cost;
        if holds mask (get64 st.regs ra) (get64 st.regs rb) then t () else f ())
  | Let_ret (name, bound, body) ->
    let b = expr c env (d + 1) bound in
    ret c ((name, b) :: env) (d + 1) body
  | Redirect (map, key, copy, miss) ->
    let kr = expr c env (d + 1) key in
    let st = c.st and size = Ebpf_maps.Sockmap.size map in
    (* a hit runs the copy length's chain, then the redirect verdict *)
    let hit =
      aside c (fun () ->
          let cr = expr c env (d + 1) copy in
          close c 5 (fun cost () ->
              let n = Int64.to_int (get64 st.regs cr) in
              charge st cost;
              if n < 0 || n > copy_limit then raise_notrace Fault;
              st.copy_len <- n;
              3))
    in
    let miss = aside c (fun () -> ret c env (d + 1) miss) in
    close c 5 (fun cost () ->
        let k = Int64.to_int (get64 st.regs kr) in
        charge st cost;
        if k < 0 || k >= size then raise_notrace Fault;
        match Ebpf_maps.Sockmap.unsafe_get map k with
        | None -> miss ()
        | Some _ as cell ->
          st.redir <- cell;
          hit ())

let compile body =
  let st = { regs = Bytes.empty; cycles = 0; sel = None; redir = None; copy_len = 0 } in
  let c =
    { st; next = 2; consts = []; steps = []; pending = 0; insns = 0; depth = 0 }
  in
  let entry = ret c [] 1 body in
  st.regs <- Bytes.make (c.next lsl 3) '\000';
  List.iter (fun (off, v) -> set64 st.regs off v) c.consts;
  (c, entry)

let verify prog =
  let result =
    if String.equal prog.name "" then Error "verifier: program must be named"
    else
      match compile prog.body with
      | exception Unbound name ->
        Error (Printf.sprintf "verifier: read of unbound register %s" name)
      | c, entry ->
        let insns = c.insns and depth = c.depth in
        if insns > max_insns then
          Error (Printf.sprintf "verifier: %d insns exceeds budget %d" insns max_insns)
        else if depth > max_depth then
          Error (Printf.sprintf "verifier: depth %d exceeds limit %d" depth max_depth)
        else Ok { vname = prog.name; insns; st = c.st; entry }
  in
  (if Trace.enabled () then
     let accepted, insns, reason =
       match result with
       | Ok v -> (true, v.insns, "")
       | Error msg -> (false, 0, msg)
     in
     (* the AST checker has no fault sites to discharge: the compiled
        program always keeps its runtime checks *)
     Trace.emit
       (Trace.Verifier_verdict
          {
            prog = prog.name;
            backend = "ast";
            accepted;
            insns;
            visited = insns;
            proved = 0;
            residual = 0;
            reason;
          }));
  result

let verify_exn prog =
  match verify prog with
  | Ok v -> v
  | Error msg -> invalid_arg ("Ebpf.verify_exn: " ^ msg)

let name (v : verified) = v.vname

let exec (v : verified) ~flow_hash ~dst_port =
  let st = v.st in
  set64 st.regs 0 (Int64.of_int flow_hash);
  set64 st.regs 8 (Int64.of_int dst_port);
  st.sel <- None;
  st.redir <- None;
  st.copy_len <- 0;
  st.cycles <- 0;
  match v.entry () with code -> code | exception Fault -> 0

let last_cycles (v : verified) = v.st.cycles
let selected (v : verified) = v.st.sel

let run (v : verified) ctx =
  let outcome =
    match exec v ~flow_hash:ctx.flow_hash ~dst_port:ctx.dst_port with
    | 1 -> ( match v.st.sel with Some s -> Selected s | None -> Fell_back)
    | 2 -> Dropped
    | 3 -> (
      match v.st.redir with
      | Some e -> Redirected { conn = e.conn; target = e.target; copy = v.st.copy_len }
      | None -> Fell_back)
    | _ -> Fell_back
  in
  (outcome, v.st.cycles)
