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

type cmp = Ebpf_code.cmp = Eq | Ne | Lt | Le | Gt | Ge

type ret =
  | Select of Ebpf_maps.Sockarray.t * expr
  | Fallback
  | Drop
  | If of cmp * expr * expr * ret * ret
  | Let_ret of string * expr * ret
  | Redirect of Ebpf_maps.Sockmap.t * expr * expr * ret

type prog = { name : string; body : ret }

let copy_limit = Ebpf_code.copy_limit

let max_insns = 4096
let max_depth = 64

type ctx = { flow_hash : int; dst_port : int }

type outcome =
  | Selected of Socket.t
  | Fell_back
  | Dropped
  | Redirected of { conn : int; target : int; copy : int }

(* ------------------------------------------------------------------ *)
(* The AST front end.

   [verify] lowers the checked body, in the same walk that sizes it,
   into the one compiled form, {!Ebpf_code}.  Every constant has its own
   read-only slot; every other node writes its result to a slot of its
   own, which only its parent reads.  A constant, a context word or a
   [Let]-bound name therefore compiles to a slot and no code.  A tree
   runs each node at most once per packet.

   The nodes with code become steps in evaluation order.  A chain ends
   in its return's verdict: the exit code, or, for [If] and a
   [Redirect] hit, the entry of the branch's own chain.

   Cycles are charged as the tree-walking oracle charges them
   ([Oracles.Ebpf_ref]): one per leaf, each node's own cost before its
   own fault check, in evaluation order, so a faulting run reports the
   same partial count.  A leaf has no code: its cycle is charged by the
   next step, before that step's own fault check. *)

module Code = Ebpf_code

exception Unbound of string

type compiler = {
  f : Code.file;
  mutable steps : (Code.k -> Code.k) list;  (* the chain being built, newest first *)
  mutable pending : int;  (* cycles its next step or verdict charges *)
  mutable insns : int;  (* nodes walked: the program's size *)
  mutable depth : int;  (* the deepest node walked, the root at 1 *)
}

(* Count a node [d] deep. *)
let visit c d =
  c.insns <- c.insns + 1;
  if d > c.depth then c.depth <- d

(* A leaf is its slot [r]; its cycle waits for the next step. *)
let leaf c r =
  c.pending <- c.pending + 1;
  r

let emit c op cost a b =
  let dst = Code.reg c.f in
  c.steps <- Code.step c.f op ~cost:(c.pending + cost) ~a ~b ~dst :: c.steps;
  c.pending <- 0;
  dst

let rec reg_of env name =
  match env with
  | [] -> raise (Unbound name)
  | (bound, r) :: rest -> if String.equal bound name then r else reg_of rest name

(* An expression [d] deep: its steps join the chain being built, and
   the result is the slot its value lands in. *)
let rec expr c env d e =
  visit c d;
  match e with
  | Const v -> leaf c (Code.const c.f v)
  | Flow_hash -> leaf c Code.flow_hash
  | Dst_port -> leaf c Code.dst_port
  | Var name -> leaf c (reg_of env name)
  | Let (name, bound, body) ->
    let b = expr c env (d + 1) bound in
    expr c ((name, b) :: env) (d + 1) body
  | Lookup (map, e) -> un c env d (Code.Lookup map) 5 e
  | Popcount e -> un c env d Code.Popcount 4 e
  | Find_nth_set (a, b) -> bin c env d Code.Find_nth 12 a b
  | Reciprocal_scale (a, b) -> bin c env d Code.Recip 2 a b
  | Band (a, b) -> bin c env d Code.And 1 a b
  | Bor (a, b) -> bin c env d Code.Or 1 a b
  | Bxor (a, b) -> bin c env d Code.Xor 1 a b
  | Add (a, b) -> bin c env d Code.Add 1 a b
  | Sub (a, b) -> bin c env d Code.Sub 1 a b
  | Shl (a, b) -> bin c env d Code.Lsh 1 a b
  | Shr (a, b) -> bin c env d Code.Rsh 1 a b
  | Mod (a, b) -> bin c env d Code.Mod 2 a b

and un c env d op cost e =
  let x = expr c env (d + 1) e in
  emit c op cost x x

and bin c env d op cost a b =
  let x = expr c env (d + 1) a in
  let y = expr c env (d + 1) b in
  emit c op cost x y

(* Close the chain being built: its verdict, charging the pending
   cycles with its own [cost], and its steps threaded onto it back to
   front.  The next chain starts empty. *)
let close c cost verdict =
  let last = verdict (c.pending + cost) in
  let entry = List.fold_left (fun next s -> s next) last c.steps in
  c.steps <- [];
  c.pending <- 0;
  entry

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
   entry.  A helper's verdict is its step followed by an exit that
   charges nothing. *)
let rec ret c env d r =
  visit c d;
  let f = c.f in
  match r with
  | Fallback -> close c 1 (fun cost -> Code.exit f ~cost 0)
  | Drop -> close c 1 (fun cost -> Code.exit f ~cost 2)
  | Select (sa, e) ->
    let i = expr c env (d + 1) e in
    close c 3 (fun cost ->
        Code.step f (Code.Select sa) ~cost ~a:i ~dst:(Code.reg f) (Code.exit f ~cost:0 1))
  | If (cmp, a, b, then_, else_) ->
    let ra = expr c env (d + 1) a in
    let rb = expr c env (d + 1) b in
    let t = aside c (fun () -> ret c env (d + 1) then_) in
    let e = aside c (fun () -> ret c env (d + 1) else_) in
    close c 1 (fun cost -> Code.branch f cmp ~cost ~a:ra ~b:rb t e)
  | Let_ret (name, bound, body) ->
    let b = expr c env (d + 1) bound in
    ret c ((name, b) :: env) (d + 1) body
  | Redirect (map, key, copy, miss) ->
    let kr = expr c env (d + 1) key in
    (* a hit runs the copy length's chain, then the redirect verdict *)
    let hit =
      aside c (fun () ->
          let cr = expr c env (d + 1) copy in
          close c 5 (fun cost ->
              Code.step f Code.Copy ~cost ~a:cr ~dst:(Code.reg f) (Code.exit f ~cost:0 3)))
    in
    let miss = aside c (fun () -> ret c env (d + 1) miss) in
    let occupied = Code.reg f and zero = Code.const f 0L in
    close c 5 (fun cost ->
        Code.step f (Code.Redirect map) ~cost ~a:kr ~dst:occupied
          (Code.branch f Ne ~cost:0 ~a:occupied ~b:zero hit miss))

let compile body =
  let c = { f = Code.file (); steps = []; pending = 0; insns = 0; depth = 0 } in
  let entry = ret c [] 1 body in
  (c, Code.finish c.f entry)

let verify prog =
  let result =
    if String.equal prog.name "" then Error "verifier: program must be named"
    else
      match compile prog.body with
      | exception Unbound name ->
        Error (Printf.sprintf "verifier: read of unbound register %s" name)
      | c, code ->
        if c.insns > max_insns then
          Error (Printf.sprintf "verifier: %d insns exceeds budget %d" c.insns max_insns)
        else if c.depth > max_depth then
          Error (Printf.sprintf "verifier: depth %d exceeds limit %d" c.depth max_depth)
        else Ok (c.insns, code)
  in
  (if Trace.enabled () then
     let accepted, insns, reason =
       match result with
       | Ok (insns, _) -> (true, insns, "")
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
  | Ok (_, code) -> code
  | Error msg -> invalid_arg ("Ebpf.verify_exn: " ^ msg)

let run code ctx =
  let outcome =
    match Code.exec code ~flow_hash:ctx.flow_hash ~dst_port:ctx.dst_port with
    | 1 -> ( match Code.selected code with Some s -> Selected s | None -> Fell_back)
    | 2 -> Dropped
    | 3 -> (
      match Code.redirected code with
      | Some { Ebpf_maps.Sockmap.conn; target } ->
        Redirected { conn; target; copy = Code.copy_len code }
      | None -> Fell_back)
    | _ -> Fell_back
  in
  (outcome, Code.last_cycles code)
