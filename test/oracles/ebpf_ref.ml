(* The tree-walking evaluator of the eBPF expression language, kept as
   the differential oracle of the compiled form [Kernel.Ebpf.verify_exn]
   builds, and as the before-side of the [dispatch/ebpf_ast] bench row.
   It walks the AST on every run: a string-keyed environment of bound
   names, a boxed [Int64] per node, and [Bitops.find_nth_set]'s
   binary-search rank-select.  The cycle count is the compiled form's
   contract: one per leaf, each node's own cost charged before its own
   fault check, in evaluation order, so a faulting run reports a partial
   count.  It takes the bare program: callers verify it first (an
   unbound name faults).  Emits no trace event. *)

open Kernel
open Kernel.Ebpf

exception Fault

let rec eval_expr ctx env cycles = function
  | Const v ->
    cycles := !cycles + 1;
    v
  | Flow_hash ->
    cycles := !cycles + 1;
    Int64.of_int ctx.flow_hash
  | Dst_port ->
    cycles := !cycles + 1;
    Int64.of_int ctx.dst_port
  | Var name -> (
    cycles := !cycles + 1;
    match List.assoc_opt name env with
    | Some v -> v
    | None -> raise Fault)
  | Let (name, bound, body) ->
    let v = eval_expr ctx env cycles bound in
    eval_expr ctx ((name, v) :: env) cycles body
  | Lookup (map, key) ->
    let k = Int64.to_int (eval_expr ctx env cycles key) in
    cycles := !cycles + 5;
    if k < 0 || k >= Ebpf_maps.Array_map.size map then raise Fault;
    Ebpf_maps.Array_map.lookup map k
  | Popcount e ->
    let v = eval_expr ctx env cycles e in
    cycles := !cycles + 4;
    Int64.of_int (Bitops.popcount64 v)
  | Find_nth_set (bm, n) ->
    let b = eval_expr ctx env cycles bm in
    let k = Int64.to_int (eval_expr ctx env cycles n) in
    cycles := !cycles + 12;
    Int64.of_int (Bitops.find_nth_set b k)
  | Reciprocal_scale (h, n) ->
    let hv = Int64.to_int (eval_expr ctx env cycles h) in
    let nv = Int64.to_int (eval_expr ctx env cycles n) in
    cycles := !cycles + 2;
    if nv <= 0 then raise Fault;
    Int64.of_int (Bitops.reciprocal_scale ~hash:hv ~n:nv)
  | Band (a, b) -> binop ctx env cycles Int64.logand a b
  | Bor (a, b) -> binop ctx env cycles Int64.logor a b
  | Bxor (a, b) -> binop ctx env cycles Int64.logxor a b
  | Add (a, b) -> binop ctx env cycles Int64.add a b
  | Sub (a, b) -> binop ctx env cycles Int64.sub a b
  | Shl (a, b) -> shift ctx env cycles Int64.shift_left a b
  | Shr (a, b) -> shift ctx env cycles Int64.shift_right_logical a b
  | Mod (a, b) ->
    let va = eval_expr ctx env cycles a in
    let vb = eval_expr ctx env cycles b in
    cycles := !cycles + 2;
    (* BPF_MOD: division by zero would be rejected at runtime. *)
    if Int64.equal vb 0L then raise Fault;
    Int64.rem va vb

and binop ctx env cycles op a b =
  let va = eval_expr ctx env cycles a in
  let vb = eval_expr ctx env cycles b in
  cycles := !cycles + 1;
  op va vb

and shift ctx env cycles op a b =
  let va = eval_expr ctx env cycles a in
  let vb = Int64.to_int (eval_expr ctx env cycles b) in
  cycles := !cycles + 1;
  if vb < 0 || vb > 63 then raise Fault;
  op va vb

let compare_values c a b =
  match c with
  | Eq -> Int64.equal a b
  | Ne -> not (Int64.equal a b)
  | Lt -> Int64.compare a b < 0
  | Le -> Int64.compare a b <= 0
  | Gt -> Int64.compare a b > 0
  | Ge -> Int64.compare a b >= 0

let rec eval_ret ctx env cycles = function
  | Fallback ->
    cycles := !cycles + 1;
    Fell_back
  | Drop ->
    cycles := !cycles + 1;
    Dropped
  | Select (sockarray, idx) ->
    let i = Int64.to_int (eval_expr ctx env cycles idx) in
    cycles := !cycles + 3;
    if i < 0 || i >= Ebpf_maps.Sockarray.size sockarray then raise Fault;
    (match Ebpf_maps.Sockarray.get sockarray i with
    | None -> raise Fault
    | Some sock -> Selected sock)
  | If (c, a, b, then_, else_) ->
    let va = eval_expr ctx env cycles a in
    let vb = eval_expr ctx env cycles b in
    cycles := !cycles + 1;
    if compare_values c va vb then eval_ret ctx env cycles then_
    else eval_ret ctx env cycles else_
  | Let_ret (name, bound, body) ->
    let v = eval_expr ctx env cycles bound in
    eval_ret ctx ((name, v) :: env) cycles body
  | Redirect (map, key, copy, miss) ->
    let k = Int64.to_int (eval_expr ctx env cycles key) in
    cycles := !cycles + 5;
    if k < 0 || k >= Ebpf_maps.Sockmap.size map then raise Fault;
    (match Ebpf_maps.Sockmap.get map k with
    | None -> eval_ret ctx env cycles miss
    | Some e ->
      let c = Int64.to_int (eval_expr ctx env cycles copy) in
      cycles := !cycles + 5;
      if c < 0 || c > copy_limit then raise Fault;
      Redirected { conn = e.conn; target = e.target; copy = c })

let run (prog : prog) ctx =
  let cycles = ref 0 in
  let outcome =
    match eval_ret ctx [] cycles prog.body with
    | outcome -> outcome
    | exception Fault -> Fell_back
  in
  (outcome, !cycles)
