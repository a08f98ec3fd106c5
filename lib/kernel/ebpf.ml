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

type verified = { vname : string; vbody : ret; insns : int }

let max_insns = 4096
let max_depth = 64

exception Unbound of string

(* Size and depth of an expression, in one pass; [env] tracks bound
   register names so unbound Var reads are rejected like uninitialized
   register reads. *)
let rec expr_stats env = function
  | Const _ | Flow_hash | Dst_port -> (1, 1)
  | Var name -> if List.mem name env then (1, 1) else raise (Unbound name)
  | Let (name, bound, body) ->
    let nb, db = expr_stats env bound in
    let n, d = expr_stats (name :: env) body in
    (nb + n + 1, 1 + max db d)
  | Lookup (_, e) | Popcount e ->
    let n, d = expr_stats env e in
    (n + 1, d + 1)
  | Find_nth_set (a, b)
  | Reciprocal_scale (a, b)
  | Band (a, b)
  | Bor (a, b)
  | Bxor (a, b)
  | Add (a, b)
  | Sub (a, b)
  | Shl (a, b)
  | Shr (a, b)
  | Mod (a, b) ->
    let na, da = expr_stats env a and nb, db = expr_stats env b in
    (na + nb + 1, 1 + max da db)

let rec ret_stats env = function
  | Select (_, e) ->
    let n, d = expr_stats env e in
    (n + 1, d + 1)
  | Fallback | Drop -> (1, 1)
  | If (_, a, b, t, f) ->
    let na, da = expr_stats env a and nb, db = expr_stats env b in
    let nt, dt = ret_stats env t and nf, df = ret_stats env f in
    (na + nb + nt + nf + 1, 1 + max (max da db) (max dt df))
  | Let_ret (name, bound, body) ->
    let nb, db = expr_stats env bound in
    let n, d = ret_stats (name :: env) body in
    (nb + n + 1, 1 + max db d)
  | Redirect (_, key, copy, miss) ->
    let nk, dk = expr_stats env key and nc, dc = expr_stats env copy in
    let nm, dm = ret_stats env miss in
    (nk + nc + nm + 1, 1 + max (max dk dc) dm)

let verify prog =
  let result =
    if prog.name = "" then Error "verifier: program must be named"
    else
      match ret_stats [] prog.body with
      | exception Unbound name ->
        Error (Printf.sprintf "verifier: read of unbound register %s" name)
      | insns, depth ->
        if insns > max_insns then
          Error (Printf.sprintf "verifier: %d insns exceeds budget %d" insns max_insns)
        else if depth > max_depth then
          Error (Printf.sprintf "verifier: depth %d exceeds limit %d" depth max_depth)
        else Ok { vname = prog.name; vbody = prog.body; insns }
  in
  (if Trace.enabled () then
     let accepted, insns, reason =
       match result with
       | Ok v -> (true, v.insns, "")
       | Error msg -> (false, 0, msg)
     in
     (* the AST checker has no fault sites to discharge: the evaluator
        always keeps its runtime checks *)
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

let name v = v.vname
let insn_count v = v.insns

type ctx = { flow_hash : int; dst_port : int }

type outcome =
  | Selected of Socket.t
  | Fell_back
  | Dropped
  | Redirected of { conn : int; target : int; copy : int }

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
    (* The verifier guarantees the binding exists. *)
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

let trace_outcome = function
  | Selected _ -> Trace.Select
  | Fell_back -> Trace.Fallback
  | Dropped -> Trace.Drop
  | Redirected _ -> Trace.Redirect

let run v ctx =
  let cycles = ref 0 in
  let outcome =
    match eval_ret ctx [] cycles v.vbody with
    | outcome -> outcome
    | exception Fault -> Fell_back
  in
  if Trace.enabled () then
    Trace.emit
      (Trace.Prog_run
         {
           prog = v.vname;
           flow_hash = ctx.flow_hash;
           outcome = trace_outcome outcome;
           cycles = !cycles;
         });
  (outcome, !cycles)
