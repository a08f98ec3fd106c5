(* Tests for the eBPF bytecode pipeline: compiler correctness,
   verifier rules, and a differential property test of the closure JIT
   (verified bytecode's one executor) and the checked reference
   interpreter against the expression-level interpreter. *)

let ast_verify = Drive.ast_verify

let check = Alcotest.check

let ctx = { Kernel.Ebpf.flow_hash = 0x1234_5678; dst_port = 8080 }

let compile_exn prog =
  match Kernel.Ebpf_vm.compile prog with
  | Ok code -> code
  | Error e -> Alcotest.fail e

let run_jit v ctx = fst (Oracles.Ebpf_vm_ref.run_jit (Kernel.Ebpf_jit.compile v) ctx)

let run_prog prog ctx =
  match Kernel.Verifier.compile_and_verify prog with
  | Ok v -> run_jit v ctx
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Basic programs                                                       *)

let test_vm_fallback_drop () =
  check Alcotest.bool "fallback" true
    (run_prog { Kernel.Ebpf.name = "f"; body = Kernel.Ebpf.Fallback } ctx
    = Kernel.Ebpf.Fell_back);
  check Alcotest.bool "drop" true
    (run_prog { Kernel.Ebpf.name = "d"; body = Kernel.Ebpf.Drop } ctx
    = Kernel.Ebpf.Dropped)

let test_vm_select () =
  let sa = Kernel.Ebpf_maps.Sockarray.create ~name:"s" ~size:4 in
  let sock = Kernel.Socket.create_listen ~port:80 ~backlog:1 () in
  Kernel.Ebpf_maps.Sockarray.set sa 2 sock;
  (match
     run_prog
       { Kernel.Ebpf.name = "s"; body = Kernel.Ebpf.Select (sa, Kernel.Ebpf.Const 2L) }
       ctx
   with
  | Kernel.Ebpf.Selected s ->
    check Alcotest.int "socket" (Kernel.Socket.id sock) (Kernel.Socket.id s)
  | _ -> Alcotest.fail "expected selection");
  (* empty slot faults -> fallback *)
  check Alcotest.bool "fault on empty" true
    (run_prog
       { Kernel.Ebpf.name = "s"; body = Kernel.Ebpf.Select (sa, Kernel.Ebpf.Const 0L) }
       ctx
    = Kernel.Ebpf.Fell_back)

let test_vm_dispatch_program () =
  (* the real Algo 2 program compiles, verifies, and picks a bitmap
     member *)
  let m_sel = Kernel.Ebpf_maps.Array_map.create ~name:"M_Sel" ~size:1 in
  Kernel.Ebpf_maps.Array_map.kernel_update m_sel 0
    (Kernel.Bitops.bits_of_list [ 1; 4; 6 ]);
  let m_socket = Kernel.Ebpf_maps.Sockarray.create ~name:"M_sock" ~size:8 in
  let socks =
    Array.init 8 (fun i ->
        let s = Kernel.Socket.create_listen ~port:80 ~backlog:1 () in
        Kernel.Ebpf_maps.Sockarray.set m_socket i s;
        s)
  in
  let prog = Hermes.Dispatch.single_group ~m_sel ~m_socket ~min_selected:2 in
  let v =
    match Kernel.Verifier.compile_and_verify prog with
    | Ok v -> v
    | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)
  in
  check Alcotest.bool "nontrivial program" true
    (Kernel.Ebpf_vm.insn_count v > 100);
  let jit = Kernel.Ebpf_jit.compile v in
  let rng = Engine.Rng.create 3 in
  for _ = 1 to 200 do
    let ctx =
      { Kernel.Ebpf.flow_hash = Engine.Rng.int rng 0xFFFFFFFF; dst_port = 80 }
    in
    match fst (Oracles.Ebpf_vm_ref.run_jit jit ctx) with
    | Kernel.Ebpf.Selected sock ->
      let slot = ref (-1) in
      Array.iteri
        (fun i s -> if Kernel.Socket.id s = Kernel.Socket.id sock then slot := i)
        socks;
      check Alcotest.bool "bitmap member" true (List.mem !slot [ 1; 4; 6 ])
    | _ -> Alcotest.fail "dispatch should select"
  done

let test_vm_two_level_program_compiles () =
  let g =
    Hermes.Groups.create ~workers:8 ~group_size:4 ~mode:Hermes.Groups.By_flow_hash
  in
  Kernel.Ebpf_maps.Array_map.kernel_update (Hermes.Groups.m_sel g) 0
    (Kernel.Bitops.bits_of_list [ 0; 1; 2; 3 ]);
  Kernel.Ebpf_maps.Array_map.kernel_update (Hermes.Groups.m_sel g) 1
    (Kernel.Bitops.bits_of_list [ 0; 1; 2; 3 ]);
  let m_socket = Kernel.Ebpf_maps.Sockarray.create ~name:"ms" ~size:8 in
  for i = 0 to 7 do
    Kernel.Ebpf_maps.Sockarray.set m_socket i
      (Kernel.Socket.create_listen ~port:80 ~backlog:1 ())
  done;
  let prog = Hermes.Groups.make_prog g ~m_socket ~min_selected:2 in
  match Kernel.Verifier.compile_and_verify prog with
  | Ok v -> (
    match run_jit v ctx with
    | Kernel.Ebpf.Selected _ -> ()
    | _ -> Alcotest.fail "two-level should select")
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)

let test_vm_disassemble () =
  let code =
    compile_exn { Kernel.Ebpf.name = "f"; body = Kernel.Ebpf.Fallback }
  in
  let text = Kernel.Ebpf_vm.disassemble code in
  check Alcotest.bool "mentions exit" true
    (String.length text > 0
    &&
    let lower = String.lowercase_ascii text in
    let rec contains i =
      i + 4 <= String.length lower
      && (String.sub lower i 4 = "exit" || contains (i + 1))
    in
    contains 0)

(* ------------------------------------------------------------------ *)
(* Verifier                                                             *)

let test_verifier_rejects_empty () =
  match Kernel.Verifier.verify [||] with
  | Error Kernel.Verifier.Empty_program -> ()
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)
  | Ok _ -> Alcotest.fail "empty accepted"

let test_verifier_rejects_uninitialized () =
  let open Kernel.Ebpf_vm in
  (* r3 read before any write *)
  match Kernel.Verifier.verify [| Mov_reg (R0, R3); Exit |] with
  | Error (Kernel.Verifier.Uninit_register { pc = 0; reg = R3 }) -> ()
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)
  | Ok _ -> Alcotest.fail "uninitialized read accepted"

let test_verifier_rejects_fallthrough () =
  let open Kernel.Ebpf_vm in
  match Kernel.Verifier.verify [| Mov_imm (R0, 0L) |] with
  | Error (Kernel.Verifier.Falls_off_end _) -> ()
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)
  | Ok _ -> Alcotest.fail "fall-off-the-end accepted"

let test_verifier_rejects_oob_jump () =
  let open Kernel.Ebpf_vm in
  match Kernel.Verifier.verify [| Ja 5; Mov_imm (R0, 0L); Exit |] with
  | Error (Kernel.Verifier.Jump_out_of_range _) -> ()
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)
  | Ok _ -> Alcotest.fail "out-of-range jump accepted"

let test_verifier_rejects_r0_unset_exit () =
  let open Kernel.Ebpf_vm in
  match Kernel.Verifier.verify [| Exit |] with
  | Error (Kernel.Verifier.Uninit_register { reg = R0; _ }) -> ()
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)
  | Ok _ -> Alcotest.fail "exit without r0 accepted"

let test_verifier_call_clobbers_args () =
  let open Kernel.Ebpf_vm in
  let m = Kernel.Ebpf_maps.Array_map.create ~name:"m" ~size:1 in
  (* r1 is dead after the call; reading it must be rejected *)
  match
    Kernel.Verifier.verify
      [|
        Mov_imm (R1, 0L);
        Call (Map_lookup m);
        Mov_reg (R0, R1);
        Exit;
      |]
  with
  | Error (Kernel.Verifier.Uninit_register { reg = R1; _ }) -> ()
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)
  | Ok _ -> Alcotest.fail "clobbered register read accepted"

let test_verifier_join_intersection () =
  let open Kernel.Ebpf_vm in
  (* r2 initialized on only one path into the join: must be rejected *)
  match
    Kernel.Verifier.verify
      [|
        Mov_imm (R0, 0L);
        Jmp_imm (Jeq, R0, 0L, 1);
        Mov_imm (R2, 7L);
        (* join point: r2 maybe uninitialized *)
        Mov_reg (R0, R2);
        Exit;
      |]
  with
  | Error (Kernel.Verifier.Uninit_register { reg = R2; _ }) -> ()
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)
  | Ok _ -> Alcotest.fail "one-sided init accepted"

let test_verifier_accepts_branchy () =
  let open Kernel.Ebpf_vm in
  match
    Kernel.Verifier.verify
      [|
        Mov_imm (R2, 5L);
        Jmp_imm (Jgt, R2, 3L, 2);
        Mov_imm (R0, 0L);
        Exit;
        Mov_imm (R0, 2L);
        Exit;
      |]
  with
  | Ok (v, _) -> check Alcotest.int "six insns" 6 (Kernel.Ebpf_vm.insn_count v)
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Differential test against the expression interpreter                 *)

let shared_map = Kernel.Ebpf_maps.Array_map.create ~name:"diff_map" ~size:4

let shared_sockarray =
  let sa = Kernel.Ebpf_maps.Sockarray.create ~name:"diff_socks" ~size:8 in
  for i = 0 to 6 do
    (* slot 7 deliberately empty so Select can fault *)
    Kernel.Ebpf_maps.Sockarray.set sa i
      (Kernel.Socket.create_listen ~port:80 ~backlog:1 ())
  done;
  sa

let gen_expr =
  let open QCheck.Gen in
  sized_size (int_range 0 4) @@ fix (fun self n ->
      let leaf =
        oneof
          [
            map (fun v -> Kernel.Ebpf.Const (Int64.of_int v)) (int_range (-100) 100);
            return Kernel.Ebpf.Flow_hash;
            return Kernel.Ebpf.Dst_port;
          ]
      in
      if n = 0 then leaf
      else
        let sub = self (n - 1) in
        oneof
          [
            leaf;
            map2 (fun a b -> Kernel.Ebpf.Add (a, b)) sub sub;
            map2 (fun a b -> Kernel.Ebpf.Sub (a, b)) sub sub;
            map2 (fun a b -> Kernel.Ebpf.Band (a, b)) sub sub;
            map2 (fun a b -> Kernel.Ebpf.Bor (a, b)) sub sub;
            map2 (fun a b -> Kernel.Ebpf.Bxor (a, b)) sub sub;
            map2 (fun a b -> Kernel.Ebpf.Mod (a, b)) sub sub;
            map (fun e -> Kernel.Ebpf.Popcount e) sub;
            map2 (fun a b -> Kernel.Ebpf.Find_nth_set (a, b)) sub sub;
            map2
              (fun a b -> Kernel.Ebpf.Reciprocal_scale (a, b))
              sub sub;
            map (fun k -> Kernel.Ebpf.Lookup (shared_map, k)) sub;
          ])

let gen_ret =
  let open QCheck.Gen in
  let cmp = oneofl Kernel.Ebpf.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  sized_size (int_range 0 2) @@ fix (fun self n ->
      let leaf =
        oneof
          [
            return Kernel.Ebpf.Fallback;
            return Kernel.Ebpf.Drop;
            map (fun e -> Kernel.Ebpf.Select (shared_sockarray, e)) gen_expr;
          ]
      in
      if n = 0 then leaf
      else
        oneof
          [
            leaf;
            (let sub = self (n - 1) in
             map2
               (fun (c, (a, b)) (t, f) -> Kernel.Ebpf.If (c, a, b, t, f))
               (pair cmp (pair gen_expr gen_expr))
               (pair sub sub));
          ])

let outcome_equal a b =
  match (a, b) with
  | Kernel.Ebpf.Fell_back, Kernel.Ebpf.Fell_back -> true
  | Kernel.Ebpf.Dropped, Kernel.Ebpf.Dropped -> true
  | Kernel.Ebpf.Selected s1, Kernel.Ebpf.Selected s2 ->
    Kernel.Socket.id s1 = Kernel.Socket.id s2
  | _ -> false

let prop_vm_matches_ast =
  QCheck.Test.make ~name:"bytecode matches expression interpreter" ~count:500
    (QCheck.make
       QCheck.Gen.(pair gen_ret (pair (int_bound 0xFFFFFFF) (int_bound 0xFFFF))))
    (fun (body, (hash_seed, port)) ->
      let prog = { Kernel.Ebpf.name = "diff"; body } in
      (* vary the map contents with the inputs *)
      for k = 0 to 3 do
        Kernel.Ebpf_maps.Array_map.kernel_update shared_map k
          (Int64.of_int ((hash_seed * (k + 3)) land 0xFFFF))
      done;
      let ctx = { Kernel.Ebpf.flow_hash = hash_seed * 2654435761; dst_port = port } in
      match (ast_verify prog, Kernel.Verifier.compile_and_verify prog) with
      | Ok ast, Ok vm ->
        let ast_out = fst (Kernel.Ebpf.run ast ctx) in
        outcome_equal ast_out (run_jit vm ctx)
        && outcome_equal ast_out (fst (Oracles.Ebpf_vm_ref.run_checked (Kernel.Ebpf_vm.program_of vm) ctx))
      | Error _, _ -> QCheck.assume_fail ()
      | _, Error _ ->
        (* register exhaustion on a deep random expression is legal *)
        QCheck.assume_fail ())

(* Popcount / rank-select instruction sequences against Bitops. *)
let prop_vm_popcount =
  QCheck.Test.make ~name:"inline popcount matches Bitops" ~count:300 QCheck.int64
    (fun v ->
      let prog =
        {
          Kernel.Ebpf.name = "pc";
          body =
            Kernel.Ebpf.If
              ( Kernel.Ebpf.Eq,
                Kernel.Ebpf.Popcount (Kernel.Ebpf.Const v),
                Kernel.Ebpf.Const (Int64.of_int (Kernel.Bitops.popcount64 v)),
                Kernel.Ebpf.Drop,
                Kernel.Ebpf.Fallback );
        }
      in
      run_prog prog ctx = Kernel.Ebpf.Dropped)

let prop_vm_find_nth =
  QCheck.Test.make ~name:"inline rank-select matches Bitops" ~count:300
    QCheck.(pair int64 (int_range (-1) 66))
    (fun (v, n) ->
      let expected = Kernel.Bitops.find_nth_set v n in
      let prog =
        {
          Kernel.Ebpf.name = "fns";
          body =
            Kernel.Ebpf.If
              ( Kernel.Ebpf.Eq,
                Kernel.Ebpf.Find_nth_set
                  (Kernel.Ebpf.Const v, Kernel.Ebpf.Const (Int64.of_int n)),
                Kernel.Ebpf.Const (Int64.of_int expected),
                Kernel.Ebpf.Drop,
                Kernel.Ebpf.Fallback );
        }
      in
      run_prog prog ctx = Kernel.Ebpf.Dropped)

let () =
  Alcotest.run "ebpf_vm"
    [
      ( "programs",
        [
          Alcotest.test_case "fallback/drop" `Quick test_vm_fallback_drop;
          Alcotest.test_case "select" `Quick test_vm_select;
          Alcotest.test_case "dispatch program" `Quick test_vm_dispatch_program;
          Alcotest.test_case "two-level compiles" `Quick test_vm_two_level_program_compiles;
          Alcotest.test_case "disassemble" `Quick test_vm_disassemble;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "rejects empty" `Quick test_verifier_rejects_empty;
          Alcotest.test_case "rejects uninitialized" `Quick test_verifier_rejects_uninitialized;
          Alcotest.test_case "rejects fallthrough" `Quick test_verifier_rejects_fallthrough;
          Alcotest.test_case "rejects oob jump" `Quick test_verifier_rejects_oob_jump;
          Alcotest.test_case "rejects bare exit" `Quick test_verifier_rejects_r0_unset_exit;
          Alcotest.test_case "call clobbers args" `Quick test_verifier_call_clobbers_args;
          Alcotest.test_case "join intersection" `Quick test_verifier_join_intersection;
          Alcotest.test_case "accepts branchy" `Quick test_verifier_accepts_branchy;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_vm_matches_ast;
          QCheck_alcotest.to_alcotest prop_vm_popcount;
          QCheck_alcotest.to_alcotest prop_vm_find_nth;
        ] );
    ]
