(* Tests for the abstract-interpretation bytecode verifier: bounded
   loops, branch refinement, certificate completeness, the stack-slot
   regression, the AST checker's error cases, and differential
   properties pitting the certificate-directed closure JIT (and the
   same JIT with every check armed) against the fully-checked
   interpreter on random bytecode. *)

(* Instructions whose dynamic checks the certificate leaves armed. *)
let residual_checks v =
  Array.fold_left (fun n proved -> if proved then n else n + 1) 0
    (Kernel.Ebpf_vm.certificate v)

let ast_verify = Drive.ast_verify

let reg_of_int i = Kernel.Ebpf_vm.[| R0; R1; R2; R3; R4; R5; R6; R7; R8; R9 |].(i)

let check = Alcotest.check

let ctx = { Kernel.Ebpf.flow_hash = 0x1234_5678; dst_port = 8080 }

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Verified bytecode runs on the closure JIT, its one executor. *)
let run_jit v ctx = fst (Oracles.Ebpf_vm_ref.run_jit (Kernel.Ebpf_jit.compile v) ctx)

let verify_ok code =
  match Kernel.Verifier.verify code with
  | Ok (v, r) -> (v, r)
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Bounded loops                                                        *)

(* r1 counts 0..9; r0 accumulates 5 per iteration.  The exit branch
   kills the backedge after ten abstract unrollings. *)
let counted_loop body_step =
  let open Kernel.Ebpf_vm in
  [|
    Mov_imm (R1, 0L);
    Mov_imm (R0, 0L);
    Alu_imm (Add, R0, 5L);
    body_step;
    Jmp_imm (Jlt, R1, 10L, -3);
    Exit;
  |]

let test_accepts_bounded_loop () =
  let open Kernel.Ebpf_vm in
  let v, r = verify_ok (counted_loop (Alu_imm (Add, R1, 1L))) in
  check Alcotest.bool "fully proved" true (Kernel.Ebpf_vm.fully_proved v);
  check Alcotest.bool "saw the backedge" true (r.Kernel.Verifier.backward_edges = 1);
  check Alcotest.bool "unrolled the loop" true (r.Kernel.Verifier.visited > 20);
  (* r0 = 50 at exit: neither pass nor drop, so the program falls back *)
  match run_jit v ctx with
  | Kernel.Ebpf.Fell_back -> ()
  | _ -> Alcotest.fail "loop program should fall back"

let test_rejects_unbounded_loop () =
  let open Kernel.Ebpf_vm in
  (* same loop shape, but the counter never advances: no abstract state
     ever covers the next iteration, so the visit budget must trip *)
  match
    Kernel.Verifier.verify ~budget:500 (counted_loop (Alu_imm (Add, R1, 0L)))
  with
  | Error (Kernel.Verifier.Budget_exhausted { visited; budget; _ }) ->
    check Alcotest.bool "spent the budget" true (visited > budget)
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)
  | Ok _ -> Alcotest.fail "unbounded loop accepted"

(* ------------------------------------------------------------------ *)
(* Stack slots (regression: the old verifier capped slots at a
   hardcoded 52 instead of max_stack_slots = 64)                        *)

let test_stack_slot_63_accepted () =
  let open Kernel.Ebpf_vm in
  let v, _ =
    verify_ok [| Mov_imm (R1, 7L); St_stack (63, R1); Ld_stack (R0, 63); Exit |]
  in
  check Alcotest.bool "fully proved" true (Kernel.Ebpf_vm.fully_proved v)

let test_stack_slot_64_rejected () =
  let open Kernel.Ebpf_vm in
  match
    Kernel.Verifier.verify
      [| Mov_imm (R1, 7L); St_stack (64, R1); Ld_stack (R0, 64); Exit |]
  with
  | Error (Kernel.Verifier.Stack_slot_oob { slot = 64; _ }) -> ()
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)
  | Ok _ -> Alcotest.fail "slot 64 accepted"

let test_deep_let_chain_uses_high_slots () =
  (* 60 live Let_ret bindings spill to stack slots 0..59 — beyond the
     old 52-slot cap, within the real 64 *)
  let rec chain i body =
    if i < 0 then body
    else
      chain (i - 1)
        (Kernel.Ebpf.Let_ret
           (Printf.sprintf "v%d" i, Kernel.Ebpf.Const (Int64.of_int i), body))
  in
  let body =
    chain 59
      (Kernel.Ebpf.If
         ( Kernel.Ebpf.Eq,
           Kernel.Ebpf.Var "v59",
           Kernel.Ebpf.Const 59L,
           Kernel.Ebpf.Drop,
           Kernel.Ebpf.Fallback ))
  in
  match
    Kernel.Verifier.compile_and_verify { Kernel.Ebpf.name = "deep_chain"; body }
  with
  | Ok v -> (
    match run_jit v ctx with
    | Kernel.Ebpf.Dropped -> ()
    | _ -> Alcotest.fail "deep chain should drop")
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Branch refinement discharges fault sites                             *)

let test_masked_shift_proved () =
  let open Kernel.Ebpf_vm in
  let v, _ =
    verify_ok
      [|
        Ld_flow_hash R2;
        Alu_imm (And, R2, 63L);
        Mov_imm (R0, 1L);
        Alu_reg (Lsh, R0, R2);
        Mov_imm (R0, 0L);
        Exit;
      |]
  in
  check Alcotest.bool "masked shift proved" true (Kernel.Ebpf_vm.fully_proved v)

let test_unmasked_shift_residual () =
  let open Kernel.Ebpf_vm in
  let v, r =
    verify_ok
      [|
        Ld_flow_hash R2;
        Mov_imm (R0, 1L);
        Alu_reg (Lsh, R0, R2);
        Mov_imm (R0, 0L);
        Exit;
      |]
  in
  check Alcotest.bool "unproved" false (Kernel.Ebpf_vm.fully_proved v);
  check Alcotest.int "one residual site" 1 r.Kernel.Verifier.residual;
  check Alcotest.int "residual checks armed" 1 (residual_checks v);
  (* the armed check fires (flow_hash is way over 63) and the program
     falls back instead of faulting the kernel *)
  match run_jit v ctx with
  | Kernel.Ebpf.Fell_back -> ()
  | _ -> Alcotest.fail "oversized shift should fall back"

let test_guarded_mod_proved () =
  let open Kernel.Ebpf_vm in
  (* jeq r2,0 guards the divisor: the fall-through's unsigned minimum
     rises to 1, discharging the mod-by-zero site *)
  let v, _ =
    verify_ok
      [|
        Ld_flow_hash R2;
        Mov_imm (R0, 100L);
        Jmp_imm (Jeq, R2, 0L, 1);
        Alu_reg (Mod, R0, R2);
        Exit;
      |]
  in
  check Alcotest.bool "guarded mod proved" true (Kernel.Ebpf_vm.fully_proved v)

let test_masked_map_index_proved () =
  let open Kernel.Ebpf_vm in
  let m = Kernel.Ebpf_maps.Array_map.create ~name:"vt_map" ~size:4 in
  let v, r =
    verify_ok
      [|
        Ld_flow_hash R1;
        Alu_imm (And, R1, 3L);
        Call (Map_lookup m);
        Mov_imm (R0, 0L);
        Exit;
      |]
  in
  check Alcotest.bool "masked index proved" true (Kernel.Ebpf_vm.fully_proved v);
  check Alcotest.bool "map site recorded" true
    (List.exists
       (fun s ->
         s.Kernel.Verifier.kind = Kernel.Verifier.Map_index
         && s.Kernel.Verifier.status = Kernel.Verifier.Proved)
       r.Kernel.Verifier.sites)

(* ------------------------------------------------------------------ *)
(* Sockmap redirect obligations                                         *)

(* Hand-built bytecode that feeds the raw flow hash to sk_redirect_map
   with no guard and no mask: the [Sockmap_key] obligation cannot be
   discharged, so the check stays armed, and the out-of-bounds key at
   runtime makes the program fall back instead of touching the map. *)
let test_unmasked_sockmap_key_residual () =
  let open Kernel.Ebpf_vm in
  let m = Kernel.Ebpf_maps.Sockmap.create ~name:"m_splice_t" ~size:8 in
  Kernel.Ebpf_maps.Sockmap.set m 4 ~conn:99 ~target:2;
  let v, r =
    verify_ok
      [|
        Ld_flow_hash R1;
        Call (Sk_redirect m);
        Mov_imm (R0, 0L);
        Exit;
      |]
  in
  check Alcotest.bool "unproved" false (Kernel.Ebpf_vm.fully_proved v);
  check Alcotest.bool "sockmap site residual" true
    (List.exists
       (fun s ->
         s.Kernel.Verifier.kind = Kernel.Verifier.Sockmap_key
         && s.Kernel.Verifier.status = Kernel.Verifier.Runtime_check)
       r.Kernel.Verifier.sites);
  check Alcotest.bool "residual checks armed" true
    (residual_checks v > 0);
  (* ctx.flow_hash = 0x12345678 >= 8: the armed check fires *)
  match run_jit v ctx with
  | Kernel.Ebpf.Fell_back -> ()
  | _ -> Alcotest.fail "OOB sockmap key should fall back"

(* An unmaskable key through the AST path: the [Redirect] compile emits
   range guards, so the call-site obligation is discharged by branch
   refinement, and an out-of-range hash takes the guard's fallback exit
   in the JIT's outcome and exit code alike. *)
let test_redirect_guard_catches_oob_key () =
  let m = Kernel.Ebpf_maps.Sockmap.create ~name:"m_splice_g" ~size:8 in
  Kernel.Ebpf_maps.Sockmap.set m 5 ~conn:41 ~target:3;
  let prog =
    {
      Kernel.Ebpf.name = "raw_key_redirect";
      body = Kernel.Ebpf.Redirect (m, Kernel.Ebpf.Flow_hash, Kernel.Ebpf.Const 64L, Kernel.Ebpf.Fallback);
    }
  in
  let v =
    match Kernel.Verifier.compile_and_verify prog with
    | Ok v -> v
    | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)
  in
  let jit = Kernel.Ebpf_jit.compile v in
  (* in range and occupied: the JIT redirects to the entry *)
  (match run_jit v { Kernel.Ebpf.flow_hash = 5; dst_port = 80 } with
  | Kernel.Ebpf.Redirected { conn; target; copy } ->
    check Alcotest.int "conn" 41 conn;
    check Alcotest.int "target" 3 target;
    check Alcotest.int "copy" 64 copy
  | _ -> Alcotest.fail "in-range occupied key should redirect");
  check Alcotest.int "jit redirects" 3
    (Kernel.Ebpf_jit.exec jit ~flow_hash:5 ~dst_port:80);
  (* out of range: the guard rejects the key before the helper runs *)
  (match run_jit v ctx with
  | Kernel.Ebpf.Fell_back -> ()
  | _ -> Alcotest.fail "OOB key should take the guard exit");
  check Alcotest.int "jit falls back" 0
    (Kernel.Ebpf_jit.exec jit ~flow_hash:ctx.Kernel.Ebpf.flow_hash ~dst_port:80)

(* ------------------------------------------------------------------ *)
(* The shipped dispatch programs carry complete certificates            *)

let algo2_full_certificate name prog =
  let code =
    match Kernel.Ebpf_vm.compile prog with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  match Kernel.Verifier.verify ~name code with
  | Ok (v, r) ->
    check Alcotest.bool (name ^ " fully proved") true
      (Kernel.Ebpf_vm.fully_proved v);
    check Alcotest.int (name ^ " residual") 0 r.Kernel.Verifier.residual;
    check Alcotest.int (name ^ " loop-free") 0 r.Kernel.Verifier.backward_edges
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)

let test_algo2_single_full_certificate () =
  let m_sel = Kernel.Ebpf_maps.Array_map.create ~name:"M_Sel" ~size:1 in
  let m_socket = Kernel.Ebpf_maps.Sockarray.create ~name:"M_sock" ~size:8 in
  algo2_full_certificate "algo2_single"
    (Hermes.Dispatch.single_group ~m_sel ~m_socket ~min_selected:2)

let test_algo2_two_level_full_certificate () =
  let g =
    Hermes.Groups.create ~workers:8 ~group_size:4 ~mode:Hermes.Groups.By_flow_hash
  in
  let m_socket = Kernel.Ebpf_maps.Sockarray.create ~name:"M_sock" ~size:8 in
  algo2_full_certificate "algo2_two_level"
    (Hermes.Groups.make_prog g ~m_socket ~min_selected:2)

(* The shipped splice program masks its key to a power-of-two sockmap
   and bounds the copy statically, so the whole redirect path carries a
   complete certificate: the JIT runs it with zero armed checks. *)
let test_splice_prog_full_certificate () =
  let m_splice = Kernel.Ebpf_maps.Sockmap.create ~name:"M_splice" ~size:4096 in
  algo2_full_certificate "hermes_splice"
    (Hermes.Dispatch.splice_prog ~m_splice ~copy:256 ())

(* ------------------------------------------------------------------ *)
(* AST-level Ebpf.verify error cases                                    *)

let sa_small = Kernel.Ebpf_maps.Sockarray.create ~name:"vt_sa" ~size:2

let test_ast_rejects_unnamed () =
  match ast_verify { Kernel.Ebpf.name = ""; body = Kernel.Ebpf.Fallback } with
  | Error msg -> check Alcotest.bool "mentions naming" true (contains msg "named")
  | Ok _ -> Alcotest.fail "unnamed program accepted"

let test_ast_rejects_unbound_var () =
  match
    ast_verify
      {
        Kernel.Ebpf.name = "unbound";
        body = Kernel.Ebpf.Select (sa_small, Kernel.Ebpf.Var "nope");
      }
  with
  | Error msg ->
    check Alcotest.bool "names the register" true (contains msg "nope")
  | Ok _ -> Alcotest.fail "unbound var accepted"

let test_ast_rejects_insn_budget () =
  (* balanced Add tree of depth 13: 16383 nodes (over the 4096 budget)
     at depth 14 (under the 64 limit), so the insn check must fire *)
  let rec tree d =
    if d = 0 then Kernel.Ebpf.Const 1L
    else Kernel.Ebpf.Add (tree (d - 1), tree (d - 1))
  in
  match
    ast_verify
      {
        Kernel.Ebpf.name = "wide";
        body =
          Kernel.Ebpf.If
            (Kernel.Ebpf.Eq, tree 13, Kernel.Ebpf.Const 0L, Kernel.Ebpf.Drop,
             Kernel.Ebpf.Fallback);
      }
  with
  | Error msg ->
    check Alcotest.bool "insn budget error" true (contains msg "exceeds budget")
  | Ok _ -> Alcotest.fail "oversized program accepted"

let test_ast_rejects_depth_limit () =
  (* left-nested Add chain: only 201 insns but depth 101 *)
  let rec chain n =
    if n = 0 then Kernel.Ebpf.Const 0L
    else Kernel.Ebpf.Add (chain (n - 1), Kernel.Ebpf.Const 1L)
  in
  match
    ast_verify
      {
        Kernel.Ebpf.name = "deep";
        body =
          Kernel.Ebpf.If
            (Kernel.Ebpf.Eq, chain 100, Kernel.Ebpf.Const 0L, Kernel.Ebpf.Drop,
             Kernel.Ebpf.Fallback);
      }
  with
  | Error msg ->
    check Alcotest.bool "depth error" true (contains msg "depth")
  | Ok _ -> Alcotest.fail "over-deep program accepted"

(* The limits themselves: depth 64 passes and 65 fails, as do 4,096
   and 4,097 nodes. *)
let test_ast_limits_exact () =
  let rec chain n =
    if n = 0 then Kernel.Ebpf.Const 0L
    else Kernel.Ebpf.Add (chain (n - 1), Kernel.Ebpf.Const 1L)
  in
  let rec tree d =
    if d = 0 then Kernel.Ebpf.Const 1L
    else Kernel.Ebpf.Add (tree (d - 1), tree (d - 1))
  in
  let accepted body =
    Result.is_ok (ast_verify { Kernel.Ebpf.name = "limit"; body })
  in
  let cmp e = Kernel.Ebpf.If (Kernel.Ebpf.Eq, e, Kernel.Ebpf.Const 0L, Drop, Fallback) in
  (* [cmp] adds 4 nodes and 1 level; [chain n] is n + 1 deep *)
  check Alcotest.bool "depth 64" true (accepted (cmp (chain 62)));
  check Alcotest.bool "depth 65" false (accepted (cmp (chain 63)));
  (* a [Let]'s body and a [Let_ret]'s return sit one level down *)
  let rec lets n =
    if n = 0 then Kernel.Ebpf.Var "x"
    else Kernel.Ebpf.Let ("x", Kernel.Ebpf.Const 0L, lets (n - 1))
  in
  let rec let_rets n =
    if n = 0 then Kernel.Ebpf.Fallback
    else Kernel.Ebpf.Let_ret ("x", Kernel.Ebpf.Const 0L, let_rets (n - 1))
  in
  check Alcotest.bool "Let depth 64" true (accepted (cmp (lets 62)));
  check Alcotest.bool "Let depth 65" false (accepted (cmp (lets 63)));
  check Alcotest.bool "Let_ret depth 64" true (accepted (let_rets 63));
  check Alcotest.bool "Let_ret depth 65" false (accepted (let_rets 64));
  (* two 2,047-node trees under Add, selected with or without a
     popcount *)
  let wide = Kernel.Ebpf.Add (tree 10, tree 10) in
  let sa = Kernel.Ebpf_maps.Sockarray.create ~name:"limit" ~size:1 in
  check Alcotest.bool "4,096 nodes" true (accepted (Kernel.Ebpf.Select (sa, wide)));
  check Alcotest.bool "4,097 nodes" false
    (accepted (Kernel.Ebpf.Select (sa, Kernel.Ebpf.Popcount wide)))

(* ------------------------------------------------------------------ *)
(* Differential property: JIT vs fully-checked interpreter              *)

let qmap = Kernel.Ebpf_maps.Array_map.create ~name:"qv_map" ~size:8

let qsa =
  let sa = Kernel.Ebpf_maps.Sockarray.create ~name:"qv_socks" ~size:8 in
  for i = 0 to 5 do
    (* slots 6-7 empty so Sk_select can fault at runtime *)
    Kernel.Ebpf_maps.Sockarray.set sa i
      (Kernel.Socket.create_listen ~port:80 ~backlog:1 ())
  done;
  sa

let qsm =
  let sm = Kernel.Ebpf_maps.Sockmap.create ~name:"qv_splice" ~size:8 in
  for k = 0 to 7 do
    (* slots 5-7 empty so Sk_redirect exercises the miss path *)
    if k < 5 then Kernel.Ebpf_maps.Sockmap.set sm k ~conn:(100 + k) ~target:(k mod 3)
  done;
  sm

(* Random but mostly-well-formed bytecode: every register initialized
   up front, helper args re-seeded right before each call, jumps biased
   forward.  Programs the verifier rejects (wild jumps, clobbered
   reads, unprovable loops) are vacuously fine — the property only
   constrains accepted ones. *)
let gen_vm_prog =
  let open QCheck.Gen in
  let reg = map reg_of_int (int_range 0 9) in
  let alu =
    oneofl Kernel.Ebpf_vm.[ Add; Sub; Mul; And; Or; Xor; Lsh; Rsh; Mod ]
  in
  let jmp = oneofl Kernel.Ebpf_vm.[ Jeq; Jne; Jlt; Jle; Jgt; Jge ] in
  let imm = map Int64.of_int (int_range (-1000) 1000) in
  let body_elt =
    frequency
      [
        (3, map2 (fun r v -> [ Kernel.Ebpf_vm.Mov_imm (r, v) ]) reg imm);
        (2, map2 (fun a b -> [ Kernel.Ebpf_vm.Mov_reg (a, b) ]) reg reg);
        ( 4,
          map3
            (fun op r v ->
              let v =
                match op with
                | Kernel.Ebpf_vm.Lsh | Kernel.Ebpf_vm.Rsh ->
                  Int64.of_int (Int64.to_int v land 63)
                | Kernel.Ebpf_vm.Mod -> if Int64.equal v 0L then 7L else v
                | _ -> v
              in
              [ Kernel.Ebpf_vm.Alu_imm (op, r, v) ])
            alu reg imm );
        (3, map3 (fun op a b -> [ Kernel.Ebpf_vm.Alu_reg (op, a, b) ]) alu reg reg);
        (1, map (fun r -> [ Kernel.Ebpf_vm.Ld_flow_hash r ]) reg);
        (1, map (fun r -> [ Kernel.Ebpf_vm.Ld_dst_port r ]) reg);
        (1, map2 (fun s r -> [ Kernel.Ebpf_vm.St_stack (s, r) ]) (int_range 0 2) reg);
        (1, map2 (fun r s -> [ Kernel.Ebpf_vm.Ld_stack (r, s) ]) reg (int_range 0 2));
        ( 2,
          map3
            (fun op r (v, off) -> [ Kernel.Ebpf_vm.Jmp_imm (op, r, v, off) ])
            jmp reg
            (pair imm (frequency [ (4, int_range 0 5); (1, int_range (-4) (-1)) ]))
        );
        ( 1,
          map
            (fun k ->
              [
                Kernel.Ebpf_vm.Mov_imm (Kernel.Ebpf_vm.R1, Int64.of_int k);
                Kernel.Ebpf_vm.Call (Kernel.Ebpf_vm.Map_lookup qmap);
              ])
            (int_range (-2) 9) );
        ( 1,
          map
            (fun k ->
              [
                Kernel.Ebpf_vm.Mov_imm (Kernel.Ebpf_vm.R1, Int64.of_int k);
                Kernel.Ebpf_vm.Call (Kernel.Ebpf_vm.Sk_select qsa);
              ])
            (int_range (-2) 9) );
        ( 1,
          map2
            (fun h n ->
              [
                Kernel.Ebpf_vm.Mov_imm (Kernel.Ebpf_vm.R1, h);
                Kernel.Ebpf_vm.Mov_imm (Kernel.Ebpf_vm.R2, Int64.of_int n);
                Kernel.Ebpf_vm.Call Kernel.Ebpf_vm.Reciprocal_scale;
              ])
            imm (int_range 1 10) );
        ( 1,
          map
            (fun k ->
              [
                Kernel.Ebpf_vm.Mov_imm (Kernel.Ebpf_vm.R1, Int64.of_int k);
                Kernel.Ebpf_vm.Call (Kernel.Ebpf_vm.Sk_redirect qsm);
              ])
            (int_range (-2) 9) );
        ( 1,
          map
            (fun c ->
              [
                Kernel.Ebpf_vm.Mov_imm (Kernel.Ebpf_vm.R1, Int64.of_int c);
                Kernel.Ebpf_vm.Call Kernel.Ebpf_vm.Sk_copy;
              ])
            (int_range (-100) (Kernel.Ebpf.copy_limit + 100)) );
      ]
  in
  let prelude =
    List.init 10 (fun i ->
        Kernel.Ebpf_vm.Mov_imm
          (reg_of_int i, Int64.of_int (i * 3)))
    @ Kernel.Ebpf_vm.
        [ St_stack (0, R0); St_stack (1, R1); St_stack (2, R2) ]
  in
  map2
    (fun body ret ->
      Array.of_list
        (prelude @ List.concat body
        @ [ Kernel.Ebpf_vm.Mov_imm (Kernel.Ebpf_vm.R0, Int64.of_int ret);
            Kernel.Ebpf_vm.Exit ]))
    (list_size (int_range 0 20) body_elt)
    (int_range 0 3)

let outcome_equal a b =
  match (a, b) with
  | Kernel.Ebpf.Fell_back, Kernel.Ebpf.Fell_back -> true
  | Kernel.Ebpf.Dropped, Kernel.Ebpf.Dropped -> true
  | Kernel.Ebpf.Selected s1, Kernel.Ebpf.Selected s2 ->
    Kernel.Socket.id s1 = Kernel.Socket.id s2
  | ( Kernel.Ebpf.Redirected { conn = c1; target = t1; copy = y1 },
      Kernel.Ebpf.Redirected { conn = c2; target = t2; copy = y2 } ) ->
    c1 = c2 && t1 = t2 && y1 = y2
  | _ -> false

(* The closure JIT compiles out every check the certificate
   discharges; [run_checked] keeps them all.  A wrong certificate would
   surface here as a skipped check: a different outcome or cycle count
   than the checked baseline.  The single [jit] instance is reused
   across all 20 contexts, so any stale scratch state leaking between
   runs would also surface here. *)
let prop_fast_matches_checked =
  QCheck.Test.make
    ~name:"certified fast path = fully-checked interpreter (random bytecode)"
    ~count:500
    (QCheck.make QCheck.Gen.(pair gen_vm_prog small_int))
    (fun (code, seed) ->
      match Kernel.Verifier.verify ~budget:3000 code with
      | Error _ -> true (* rejected programs constrain nothing *)
      | Ok (v, _) ->
        let jit = Kernel.Ebpf_jit.compile v in
        let rng = Engine.Rng.create (seed + 1) in
        let ok = ref true in
        for _ = 1 to 20 do
          let ctx =
            {
              Kernel.Ebpf.flow_hash =
                Engine.Rng.int rng 0x7FFFFFFF - 0x3FFFFFFF;
              dst_port = Engine.Rng.int rng 0xFFFF;
            }
          in
          let jit_out, jit_cycles = Oracles.Ebpf_vm_ref.run_jit jit ctx in
          let chk_out, chk_cycles = Oracles.Ebpf_vm_ref.run_checked (Kernel.Ebpf_vm.program_of v) ctx in
          ok :=
            !ok && outcome_equal jit_out chk_out && jit_cycles = chk_cycles
        done;
        !ok)

(* The JIT's armed checks, at every site: the same bytecode compiled
   against an empty certificate keeps every dynamic check armed, running
   it as an interpreter without a certificate would.  The certified JIT,
   that all-armed JIT and [run_checked] must agree on outcome and cycle
   count; the property above reaches the armed closures only at residual
   sites.  Both [jit] instances are reused across all 20 contexts. *)
let prop_jit_matches_interpreters =
  QCheck.Test.make
    ~name:"closure JIT = interpreter = checked interpreter (random bytecode)"
    ~count:500
    (QCheck.make QCheck.Gen.(pair gen_vm_prog small_int))
    (fun (code, seed) ->
      match Kernel.Verifier.verify ~budget:3000 code with
      | Error _ -> true (* rejected programs constrain nothing *)
      | Ok (v, _) ->
        let jit = Kernel.Ebpf_jit.compile v in
        let armed =
          Kernel.Ebpf_jit.compile
            (Kernel.Ebpf_vm.certify code
               ~proved:(Array.make (Array.length code) false))
        in
        let rng = Engine.Rng.create (seed + 7) in
        let ok = ref true in
        for _ = 1 to 20 do
          let ctx =
            {
              Kernel.Ebpf.flow_hash =
                Engine.Rng.int rng 0x7FFFFFFF - 0x3FFFFFFF;
              dst_port = Engine.Rng.int rng 0xFFFF;
            }
          in
          let jit_out, jit_cycles = Oracles.Ebpf_vm_ref.run_jit jit ctx in
          let arm_out, arm_cycles = Oracles.Ebpf_vm_ref.run_jit armed ctx in
          let chk_out, chk_cycles = Oracles.Ebpf_vm_ref.run_checked (Kernel.Ebpf_vm.program_of v) ctx in
          ok :=
            !ok
            && outcome_equal jit_out arm_out
            && outcome_equal jit_out chk_out
            && jit_cycles = arm_cycles && jit_cycles = chk_cycles
        done;
        !ok)

(* Random sockmap redirect programs through all three engines: the AST
   interpreter, the checked bytecode interpreter and the closure JIT
   must agree on the full redirect verdict (entry and accepted copy
   length) for every map size (power-of-two sizes take the masked-key
   path, the rest the mod-folded one), occupancy pattern and flow
   hash. *)
let prop_redirect_engines_agree =
  QCheck.Test.make
    ~name:"splice redirect: AST = checked = JIT (random sockmaps)"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 1 64) (int_range 0 Kernel.Ebpf.copy_limit) small_int))
    (fun (size, copy, seed) ->
      let m = Kernel.Ebpf_maps.Sockmap.create ~name:"qv_redir" ~size in
      let rng = Engine.Rng.create (seed + 11) in
      for k = 0 to size - 1 do
        if Engine.Rng.int rng 4 <> 0 then
          Kernel.Ebpf_maps.Sockmap.set m k ~conn:(500 + k)
            ~target:(Engine.Rng.int rng 8)
      done;
      let prog = Hermes.Dispatch.splice_prog ~m_splice:m ~copy () in
      match Kernel.Verifier.compile_and_verify prog with
      | Error e -> QCheck.Test.fail_report (Kernel.Verifier.error_to_string e)
      | Ok v ->
        let jit = Kernel.Ebpf_jit.compile v in
        let ast = Kernel.Ebpf.verify_exn prog in
        let ok = ref true in
        for _ = 1 to 20 do
          let ctx =
            { Kernel.Ebpf.flow_hash = Engine.Rng.int rng 0x7FFFFFFF; dst_port = 80 }
          in
          let ast_out = fst (Kernel.Ebpf.run ast ctx) in
          let chk_out, chk_cycles = Oracles.Ebpf_vm_ref.run_checked (Kernel.Ebpf_vm.program_of v) ctx in
          let jit_out, jit_cycles = Oracles.Ebpf_vm_ref.run_jit jit ctx in
          ok :=
            !ok
            && outcome_equal ast_out chk_out
            && outcome_equal jit_out chk_out
            && jit_cycles = chk_cycles
        done;
        !ok)

let () =
  Alcotest.run "verifier"
    [
      ( "loops",
        [
          Alcotest.test_case "bounded loop accepted" `Quick
            test_accepts_bounded_loop;
          Alcotest.test_case "unbounded loop rejected" `Quick
            test_rejects_unbounded_loop;
        ] );
      ( "stack",
        [
          Alcotest.test_case "slot 63 accepted" `Quick test_stack_slot_63_accepted;
          Alcotest.test_case "slot 64 rejected" `Quick test_stack_slot_64_rejected;
          Alcotest.test_case "deep let chain" `Quick
            test_deep_let_chain_uses_high_slots;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "masked shift proved" `Quick test_masked_shift_proved;
          Alcotest.test_case "unmasked shift residual" `Quick
            test_unmasked_shift_residual;
          Alcotest.test_case "guarded mod proved" `Quick test_guarded_mod_proved;
          Alcotest.test_case "masked map index proved" `Quick
            test_masked_map_index_proved;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "algo2 single" `Quick
            test_algo2_single_full_certificate;
          Alcotest.test_case "algo2 two-level" `Quick
            test_algo2_two_level_full_certificate;
          Alcotest.test_case "unmasked sockmap key residual" `Quick
            test_unmasked_sockmap_key_residual;
          Alcotest.test_case "redirect guard catches OOB key" `Quick
            test_redirect_guard_catches_oob_key;
          Alcotest.test_case "splice prog full certificate" `Quick
            test_splice_prog_full_certificate;
        ] );
      ( "ast-checker",
        [
          Alcotest.test_case "unnamed" `Quick test_ast_rejects_unnamed;
          Alcotest.test_case "unbound var" `Quick test_ast_rejects_unbound_var;
          Alcotest.test_case "insn budget" `Quick test_ast_rejects_insn_budget;
          Alcotest.test_case "depth limit" `Quick test_ast_rejects_depth_limit;
          Alcotest.test_case "exact limits" `Quick test_ast_limits_exact;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_fast_matches_checked;
          QCheck_alcotest.to_alcotest prop_jit_matches_interpreters;
          QCheck_alcotest.to_alcotest prop_redirect_engines_agree;
        ] );
    ]
