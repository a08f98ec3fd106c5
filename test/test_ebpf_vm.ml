(* Tests for the eBPF pipelines: compiler correctness, verifier rules,
   a differential property test of the closure JIT (verified bytecode's
   one executor) and the checked reference interpreter against the
   compiled expression program, and of the compiled expression program
   against the tree-walking oracle. *)

let ast_verify = Drive.ast_verify

let check = Alcotest.check

let ctx = { Kernel.Ebpf.flow_hash = 0x1234_5678; dst_port = 8080 }

let compile_exn prog =
  match Kernel.Ebpf_vm.compile prog with
  | Ok code -> code
  | Error e -> Alcotest.fail e

let run_jit v ctx = fst (Kernel.Ebpf.run (Kernel.Ebpf_jit.compile v) ctx)

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
    match fst (Kernel.Ebpf.run jit ctx) with
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
(* Differential test against the (compiled) expression program          *)

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

(* ------------------------------------------------------------------ *)
(* Compiled AST programs against the tree-walking oracle                 *)

(* The compiled form must equal [Oracles.Ebpf_ref] on (outcome, cycles)
   for every program, faults included: a fault's partial count pins the
   order the compiled code charges cycles in.  Programs come from the
   generators above, and from a scoped generator that adds what those
   leave out: [Let]/[Var] names, shifts, [Let_ret] and sockmap
   redirects, with constants and shift amounts that reach every fault
   site. *)

let ebpf_outcome_equal a b =
  match (a, b) with
  | Kernel.Ebpf.Redirected x, Kernel.Ebpf.Redirected y ->
    x.conn = y.conn && x.target = y.target && x.copy = y.copy
  | _ -> outcome_equal a b

let shared_sockmap =
  let m = Kernel.Ebpf_maps.Sockmap.create ~name:"diff_splice" ~size:8 in
  List.iter (fun k -> Kernel.Ebpf_maps.Sockmap.set m k ~conn:(100 + k) ~target:(k mod 3)) [ 0; 2; 3; 5 ];
  m

let gen_scoped_expr names =
  let open QCheck.Gen in
  let const =
    frequency
      [
        (6, map (fun v -> Kernel.Ebpf.Const (Int64.of_int v)) (int_range (-3) 70));
        (1, map (fun v -> Kernel.Ebpf.Const v) ui64);
      ]
  in
  let rec go names n =
    let leaf =
      oneof
        ([ const; return Kernel.Ebpf.Flow_hash; return Kernel.Ebpf.Dst_port ]
        @ if names = [] then [] else [ map (fun v -> Kernel.Ebpf.Var v) (oneofl names) ])
    in
    if n = 0 then leaf
    else
      let sub = go names (n - 1) in
      let bin f = map2 f sub sub in
      let fresh = Printf.sprintf "x%d" (List.length names) in
      frequency
        [
          (3, leaf);
          (1, bin (fun a b -> Kernel.Ebpf.Add (a, b)));
          (1, bin (fun a b -> Kernel.Ebpf.Sub (a, b)));
          (1, bin (fun a b -> Kernel.Ebpf.Band (a, b)));
          (1, bin (fun a b -> Kernel.Ebpf.Bor (a, b)));
          (1, bin (fun a b -> Kernel.Ebpf.Bxor (a, b)));
          (1, bin (fun a b -> Kernel.Ebpf.Shl (a, b)));
          (1, bin (fun a b -> Kernel.Ebpf.Shr (a, b)));
          (1, bin (fun a b -> Kernel.Ebpf.Mod (a, b)));
          (1, map (fun e -> Kernel.Ebpf.Popcount e) sub);
          (1, bin (fun a b -> Kernel.Ebpf.Find_nth_set (a, b)));
          (1, bin (fun a b -> Kernel.Ebpf.Reciprocal_scale (a, b)));
          (1, map (fun k -> Kernel.Ebpf.Lookup (shared_map, k)) sub);
          ( 2,
            map2
              (fun bound body -> Kernel.Ebpf.Let (fresh, bound, body))
              sub
              (go (fresh :: names) (n - 1)) );
        ]
  in
  go names

let gen_scoped_ret =
  let open QCheck.Gen in
  let cmp = oneofl Kernel.Ebpf.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let rec go names n =
    let e = int_range 0 3 >>= gen_scoped_expr names in
    let leaf =
      frequency
        [
          (1, return Kernel.Ebpf.Fallback);
          (1, return Kernel.Ebpf.Drop);
          (3, map (fun e -> Kernel.Ebpf.Select (shared_sockarray, e)) e);
        ]
    in
    if n = 0 then leaf
    else
      let sub = go names (n - 1) in
      let fresh = Printf.sprintf "r%d" (List.length names) in
      frequency
        [
          (2, leaf);
          ( 2,
            map2
              (fun (c, (a, b)) (t, f) -> Kernel.Ebpf.If (c, a, b, t, f))
              (pair cmp (pair e e))
              (pair sub sub) );
          ( 2,
            map2
              (fun bound body -> Kernel.Ebpf.Let_ret (fresh, bound, body))
              e
              (go (fresh :: names) (n - 1)) );
          ( 1,
            map3
              (fun key copy miss -> Kernel.Ebpf.Redirect (shared_sockmap, key, copy, miss))
              e
              (oneof [ e; map (fun c -> Kernel.Ebpf.Const (Int64.of_int c)) (int_range (-1) 65537) ])
              sub );
        ]
  in
  int_range 0 3 >>= go []

(* Both engines on one verified program over a few packets. *)
let compiled_matches_oracle prog hashes =
  let v = Kernel.Ebpf.verify_exn prog in
  List.for_all
    (fun (flow_hash, dst_port) ->
      let ctx = { Kernel.Ebpf.flow_hash; dst_port } in
      let got, got_cycles = Kernel.Ebpf.run v ctx in
      let want, want_cycles = Oracles.Ebpf_ref.run prog ctx in
      ebpf_outcome_equal got want && got_cycles = want_cycles)
    hashes

let gen_packets =
  QCheck.Gen.(list_repeat 4 (pair (int_bound 0x3FFFFFFF) (int_range 0 70)))

let refill_shared_map seed =
  for k = 0 to 3 do
    Kernel.Ebpf_maps.Array_map.kernel_update shared_map k
      (if k = 3 then Int64.of_int (seed * 0x9E3779B9) else Int64.of_int ((seed * (k + 3)) land 0xFF))
  done

(* A redirect hit at the bounds of the copy check, which random
   programs almost never reach. *)
let test_compiled_redirect_copy_bounds () =
  List.iter
    (fun copy ->
      let body =
        Kernel.Ebpf.Redirect
          (shared_sockmap, Kernel.Ebpf.Const 2L, Kernel.Ebpf.Const (Int64.of_int copy),
           Kernel.Ebpf.Fallback)
      in
      check Alcotest.bool (Printf.sprintf "copy %d" copy) true
        (compiled_matches_oracle { Kernel.Ebpf.name = "redir"; body } [ (7, 80) ]))
    [ -1; 0; 1; Kernel.Ebpf.copy_limit; Kernel.Ebpf.copy_limit + 1 ]

(* The program's size as the verifier's budget counts it: every node. *)
let rec expr_size = function
  | Kernel.Ebpf.Const _ | Flow_hash | Dst_port | Var _ -> 1
  | Lookup (_, e) | Popcount e -> 1 + expr_size e
  | Let (_, a, b)
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
    1 + expr_size a + expr_size b

let rec ret_size = function
  | Kernel.Ebpf.Fallback | Drop -> 1
  | Select (_, e) -> 1 + expr_size e
  | If (_, a, b, t, f) -> 1 + expr_size a + expr_size b + ret_size t + ret_size f
  | Let_ret (_, e, r) -> 1 + expr_size e + ret_size r
  | Redirect (_, k, c, m) -> 1 + expr_size k + expr_size c + ret_size m

let prop_verdict_counts_nodes =
  QCheck.Test.make ~name:"verifier verdict counts every node" ~count:500
    (QCheck.make ~print:(fun _ -> "<program>") gen_scoped_ret)
    (fun body ->
      let prog = { Kernel.Ebpf.name = "size"; body } in
      match Capture.records (fun () -> ignore (Kernel.Ebpf.verify_exn prog)) with
      | [ { Trace.event = Trace.Verifier_verdict { accepted = true; insns; _ }; _ } ] ->
        insns = ret_size body
      | _ -> false)

let prop_compiled_matches_oracle =
  QCheck.Test.make ~name:"compiled AST = tree-walker (scoped programs)" ~count:1000
    (QCheck.make ~print:(fun _ -> "<program>")
       QCheck.Gen.(triple gen_scoped_ret gen_packets small_nat))
    (fun (body, packets, seed) ->
      refill_shared_map seed;
      compiled_matches_oracle { Kernel.Ebpf.name = "cmp"; body } packets)

let prop_compiled_matches_oracle_plain =
  QCheck.Test.make ~name:"compiled AST = tree-walker (expression programs)" ~count:1000
    (QCheck.make ~print:(fun _ -> "<program>")
       QCheck.Gen.(triple gen_ret gen_packets small_nat))
    (fun (body, packets, seed) ->
      refill_shared_map seed;
      compiled_matches_oracle { Kernel.Ebpf.name = "cmp"; body } packets)

(* The two-level dispatch chain: 2 and 4 groups, both level-1 modes,
   random group bitmaps and sockarray holes. *)
let prop_compiled_group_chain =
  QCheck.Test.make ~name:"compiled AST = tree-walker (2- and 4-group chains)" ~count:300
    (QCheck.make ~print:(fun _ -> "<chain>")
       QCheck.Gen.(
         quad (oneofl [ 2; 4 ]) bool (list_repeat 4 ui64)
           (pair (list_repeat 8 (int_bound 0xFFFFFFF)) (int_range 1 3))))
    (fun (groups, by_port, bitmaps, (hashes, min_selected)) ->
      let group_size = 16 in
      let workers = groups * group_size in
      let g =
        Hermes.Groups.create ~workers ~group_size
          ~mode:(if by_port then Hermes.Groups.By_dst_port else Hermes.Groups.By_flow_hash)
      in
      List.iteri
        (fun i bm ->
          if i < groups then
            Kernel.Ebpf_maps.Array_map.kernel_update (Hermes.Groups.m_sel g) i
              (Int64.logand bm 0xFFFFL))
        bitmaps;
      let m_socket = Kernel.Ebpf_maps.Sockarray.create ~name:"chain_socks" ~size:workers in
      for w = 0 to workers - 1 do
        if w mod 5 <> 4 then
          Kernel.Ebpf_maps.Sockarray.set m_socket w
            (Kernel.Socket.create_listen ~port:80 ~backlog:1 ())
      done;
      let prog = Hermes.Groups.make_prog g ~m_socket ~min_selected in
      compiled_matches_oracle prog
        (List.mapi (fun i h -> (h, 80 + i)) hashes))

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
      ( "compiled-ast",
        [
          QCheck_alcotest.to_alcotest prop_compiled_matches_oracle;
          QCheck_alcotest.to_alcotest prop_compiled_matches_oracle_plain;
          QCheck_alcotest.to_alcotest prop_compiled_group_chain;
          Alcotest.test_case "redirect copy bounds" `Quick
            test_compiled_redirect_copy_bounds;
          QCheck_alcotest.to_alcotest prop_verdict_counts_nodes;
        ] );
    ]
