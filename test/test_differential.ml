(* Differential tests for the eBPF rank-select socket pick: the
   bit-twiddling path (Kernel.Bitops SWAR popcount, binary-search
   select and its native-halves form, and the Algo 2 program built on
   them) against a naive loop-over-the-bits reference, exhaustively
   for every 8-bit bitmap and randomized over 64-bit ones. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Naive references                                                     *)

let naive_popcount bm =
  let c = ref 0 in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_right_logical bm i) 1L = 1L then incr c
  done;
  !c

let naive_nth_set bm n =
  let seen = ref 0 and result = ref (-1) in
  for i = 0 to 63 do
    if !result = -1 && Int64.logand (Int64.shift_right_logical bm i) 1L = 1L
    then begin
      incr seen;
      if !seen = n then result := i
    end
  done;
  !result

(* Algo 2 as a straight loop: popcount, fall back under min_selected,
   otherwise pick the (reciprocal_scale(hash, n) + 1)-th set bit. *)
let naive_pick ~bitmap ~flow_hash ~min_selected =
  let n = naive_popcount bitmap in
  if n < min_selected then None
  else
    Some (naive_nth_set bitmap (Kernel.Bitops.reciprocal_scale ~hash:flow_hash ~n + 1))

(* The compiled program's rank-select, on the bitmap split into its
   native halves. *)
let nth_set_halves bm n =
  Kernel.Bitops.find_nth_set_halves
    ~lo:(Int64.to_int bm land 0xFFFFFFFF)
    ~hi:(Int64.to_int (Int64.shift_right_logical bm 32))
    n

(* ------------------------------------------------------------------ *)
(* Exhaustive 8-bit sweep of the primitives                             *)

let test_rank_select_exhaustive_8bit () =
  for bits = 0 to 255 do
    let bm = Int64.of_int bits in
    check Alcotest.int
      (Printf.sprintf "popcount 0x%x" bits)
      (naive_popcount bm)
      (Kernel.Bitops.popcount64 bm);
    for n = 1 to 8 do
      check Alcotest.int
        (Printf.sprintf "nth_set 0x%x %d" bits n)
        (naive_nth_set bm n)
        (Kernel.Bitops.find_nth_set bm n)
    done;
    (* the halves form also in the upper half, across the split and at
       the top bit, and for n out of range on either side *)
    List.iter
      (fun shift ->
        let bm = Int64.shift_left bm shift in
        for n = 0 to 9 do
          check Alcotest.int
            (Printf.sprintf "nth_set_halves 0x%Lx %d" bm n)
            (naive_nth_set bm n) (nth_set_halves bm n)
        done)
      [ 0; 28; 32; 56 ]
  done

(* ------------------------------------------------------------------ *)
(* Whole-program pick: AST interpreter and bytecode JIT vs the loop     *)

let make_prog ~bitmap ~min_selected =
  let m_sel = Kernel.Ebpf_maps.Array_map.create ~name:"m" ~size:1 in
  Kernel.Ebpf_maps.Array_map.kernel_update m_sel 0 bitmap;
  let m_socket = Kernel.Ebpf_maps.Sockarray.create ~name:"s" ~size:64 in
  let socks =
    Array.init 64 (fun _ -> Kernel.Socket.create_listen ~port:80 ~backlog:1 ())
  in
  Array.iteri (fun i s -> Kernel.Ebpf_maps.Sockarray.set m_socket i s) socks;
  (Hermes.Dispatch.single_group ~m_sel ~m_socket ~min_selected, socks)

let slot_of socks sock =
  let result = ref (-1) in
  Array.iteri (fun i s -> if s == sock then result := i) socks;
  !result

let agree ~bitmap ~flow_hash ~min_selected =
  let prog, socks = make_prog ~bitmap ~min_selected in
  let ctx = { Kernel.Ebpf.flow_hash; dst_port = 80 } in
  let ast_outcome = fst (Kernel.Ebpf.run (Kernel.Ebpf.verify_exn prog) ctx) in
  let vm =
    match Kernel.Verifier.compile_and_verify prog with
    | Ok vm -> vm
    | Error e ->
      Alcotest.failf "vm compile: %s" (Kernel.Verifier.error_to_string e)
  in
  let jit_outcome = fst (Kernel.Ebpf.run (Kernel.Ebpf_jit.compile vm) ctx) in
  let expected = naive_pick ~bitmap ~flow_hash ~min_selected in
  let matches outcome =
    match (outcome, expected) with
    | Kernel.Ebpf.Selected sock, Some slot -> slot_of socks sock = slot
    | Kernel.Ebpf.Fell_back, None -> true
    | _ -> false
  in
  matches ast_outcome && matches jit_outcome

let test_pick_exhaustive_8bit () =
  let hashes = [ 0; 1; 0x2545F491; 0x7FFFFFFF; 0xdeadbeef; 0xFFFFFFFF ] in
  for bits = 0 to 255 do
    List.iter
      (fun flow_hash ->
        if not (agree ~bitmap:(Int64.of_int bits) ~flow_hash ~min_selected:2) then
          Alcotest.failf "mismatch at bitmap=0x%x hash=0x%x" bits flow_hash)
      hashes
  done

let prop_pick_random_64bit =
  QCheck.Test.make ~name:"Algo 2 pick = naive loop (random 64-bit bitmaps)"
    ~count:500
    QCheck.(triple int64 (int_bound 0xFFFFFFF) (int_range 1 4))
    (fun (bitmap, hash_seed, min_selected) ->
      let flow_hash = hash_seed * 2654435761 land 0xFFFFFFFF in
      agree ~bitmap ~flow_hash ~min_selected)

let prop_rank_select_random_64bit =
  QCheck.Test.make ~name:"find_nth_set = naive loop (random 64-bit bitmaps)"
    ~count:2000
    QCheck.(pair int64 (int_range 1 64))
    (fun (bm, n) ->
      let expected = naive_nth_set bm n in
      Kernel.Bitops.find_nth_set bm n = expected && nth_set_halves bm n = expected)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "differential"
    [
      ( "rank-select",
        [
          Alcotest.test_case "primitives: exhaustive 8-bit" `Quick
            test_rank_select_exhaustive_8bit;
          Alcotest.test_case "whole pick: exhaustive 8-bit" `Quick
            test_pick_exhaustive_8bit;
          QCheck_alcotest.to_alcotest prop_rank_select_random_64bit;
          QCheck_alcotest.to_alcotest prop_pick_random_64bit;
        ] );
    ]
