(* Conn_table: the SoA open-addressing table behind Device/Worker
   connection state.

   The core check is a differential against the retired Hashtbl
   implementation (Oracles.Conn_table_ref): random open/close/crash-sweep
   programs must leave both tables with identical observable contents.
   The rest pins the properties the hot path depends on — slot reuse
   through the free list, growth across doublings, payload clearing on
   free (dead connections must not pin closures), and deterministic
   iteration. *)

module T = Engine.Conn_table

(* ------------------------------------------------------------------ *)
(* Differential vs the Hashtbl reference                                *)

type op =
  | Add of int * int (* key, aux *)
  | Remove of int
  | Find of int
  | Sweep of int (* crash sweep: remove every key <= bound *)

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k a -> Add (1 + (k mod 60), a)) (int_bound 59) (int_bound 1000));
        (3, map (fun k -> Remove (1 + (k mod 60))) (int_bound 59));
        (2, map (fun k -> Find (1 + (k mod 60))) (int_bound 59));
        (1, map (fun b -> Sweep (1 + (b mod 60))) (int_bound 59));
      ])

let pp_op = function
  | Add (k, a) -> Printf.sprintf "Add(%d,%d)" k a
  | Remove k -> Printf.sprintf "Remove %d" k
  | Find k -> Printf.sprintf "Find %d" k
  | Sweep b -> Printf.sprintf "Sweep %d" b

let arb_program =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 200) gen_op)

(* Payload encodes (key, aux) so a slot mix-up is visible as a value
   mismatch, not just a presence mismatch. *)
let payload_for k a = Printf.sprintf "%d#%d" k a

let keys_sorted t =
  List.sort compare (T.fold t ~init:[] ~f:(fun acc ~key ~slot:_ -> key :: acc))

let observe_key t r k =
  let s = T.find_slot t k and rs = Oracles.Conn_table_ref.find_slot r k in
  match (s >= 0, rs >= 0) with
  | false, false -> true
  | true, true ->
    String.equal (T.payload t s) (Oracles.Conn_table_ref.payload r rs)
    && T.aux t s = Oracles.Conn_table_ref.aux r rs
  | _ -> false

let prop_differential =
  QCheck.Test.make ~name:"SoA table = Hashtbl reference on random programs"
    ~count:500 arb_program (fun ops ->
      (* Tiny initial capacity so growth happens inside the program. *)
      let t = T.create ~dummy:"" ~capacity:8 () in
      let r = Oracles.Conn_table_ref.create ~dummy:"" ~capacity:8 () in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Add (k, a) ->
            T.add t ~key:k ~aux:a (payload_for k a);
            Oracles.Conn_table_ref.add r ~key:k ~aux:a (payload_for k a)
          | Remove k ->
            if T.remove t k <> Oracles.Conn_table_ref.remove r k then ok := false
          | Find k -> if not (observe_key t r k) then ok := false
          | Sweep b ->
            (* the orphan-sweep shape: snapshot keys, then remove *)
            List.iter
              (fun k -> if k <= b then ignore (T.remove t k))
              (keys_sorted t);
            List.iter
              (fun k -> if k <= b then ignore (Oracles.Conn_table_ref.remove r k))
              (Oracles.Conn_table_ref.keys_sorted r));
          if T.length t <> Oracles.Conn_table_ref.length r then ok := false)
        ops;
      (* Final deep comparison. *)
      if keys_sorted t <> Oracles.Conn_table_ref.keys_sorted r then ok := false;
      List.iter (fun k -> if not (observe_key t r k) then ok := false)
        (keys_sorted t);
      !ok)

(* ------------------------------------------------------------------ *)
(* Unit properties                                                      *)

let test_basic () =
  let t = T.create ~dummy:(-1) () in
  Alcotest.(check int) "empty" 0 (T.length t);
  Alcotest.(check int) "absent" (-1) (T.find_slot t 42);
  T.add t ~key:42 ~aux:7 1042;
  let s = T.find_slot t 42 in
  Alcotest.(check bool) "present" true (s >= 0);
  Alcotest.(check int) "payload" 1042 (T.payload t s);
  Alcotest.(check int) "aux" 7 (T.aux t s);
  T.add t ~key:42 ~aux:9 2042;
  Alcotest.(check int) "replace keeps length" 1 (T.length t);
  let s = T.find_slot t 42 in
  Alcotest.(check int) "replaced payload" 2042 (T.payload t s);
  Alcotest.(check int) "replaced aux" 9 (T.aux t s);
  Alcotest.(check bool) "remove" true (T.remove t 42);
  Alcotest.(check bool) "remove again" false (T.remove t 42);
  Alcotest.(check int) "gone" (-1) (T.find_slot t 42)

let test_rejects_nonpositive_keys () =
  let t = T.create ~dummy:0 () in
  Alcotest.check_raises "key 0" (Invalid_argument "Conn_table.add: key must be > 0")
    (fun () -> T.add t ~key:0 ~aux:0 1);
  Alcotest.check_raises "negative key"
    (Invalid_argument "Conn_table.add: key must be > 0") (fun () ->
      T.add t ~key:(-3) ~aux:0 1)

let test_slot_reuse () =
  let t = T.create ~dummy:0 ~capacity:64 () in
  T.add t ~key:1 ~aux:0 101;
  T.add t ~key:2 ~aux:0 102;
  let s1 = T.find_slot t 1 in
  ignore (T.remove t 1);
  (* LIFO free list: the next insert reuses the just-freed slot, so a
     steady open/close churn touches a constant set of slots. *)
  T.add t ~key:3 ~aux:0 103;
  Alcotest.(check int) "freed slot reused" s1 (T.find_slot t 3);
  Alcotest.(check int) "other entry untouched" 102 (T.payload t (T.find_slot t 2))

let test_growth () =
  let t = T.create ~dummy:"" ~capacity:8 () in
  let n = 10_000 in
  for k = 1 to n do
    T.add t ~key:k ~aux:(k * 2) (string_of_int k)
  done;
  Alcotest.(check int) "length" n (T.length t);
  for k = 1 to n do
    let s = T.find_slot t k in
    if s < 0 then Alcotest.failf "key %d lost across growth" k;
    if T.aux t s <> k * 2 then Alcotest.failf "aux mangled for %d" k;
    if T.payload t s <> string_of_int k then Alcotest.failf "payload mangled for %d" k
  done;
  (* Remove odd keys, verify even survive (backward-shift deletion). *)
  for k = 1 to n do
    if k mod 2 = 1 then ignore (T.remove t k)
  done;
  Alcotest.(check int) "half left" (n / 2) (T.length t);
  for k = 1 to n do
    let present = T.find_slot t k >= 0 in
    if present <> (k mod 2 = 0) then Alcotest.failf "wrong presence for %d" k
  done

let test_payload_released_on_free () =
  let t = T.create ~dummy:(fun () -> ()) () in
  let leaked = Weak.create 1 in
  (* A closure over fresh heap state, reachable only through the
     table.  After remove + major GC it must be collectable: the slot
     store overwrites freed payloads with the dummy. *)
  let () =
    let big = Bytes.create 4096 in
    let closure () = ignore (Bytes.length big) in
    Weak.set leaked 0 (Some closure);
    T.add t ~key:5 ~aux:0 closure
  in
  ignore (T.remove t 5);
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "closure collected after remove" false
    (Option.is_some (Weak.get leaked 0))

let test_iteration_deterministic () =
  let build () =
    let t = T.create ~dummy:0 ~capacity:8 () in
    for k = 1 to 100 do
      T.add t ~key:k ~aux:0 k
    done;
    for k = 1 to 100 do
      if k mod 3 = 0 then ignore (T.remove t k)
    done;
    t
  in
  let order t = T.fold t ~init:[] ~f:(fun acc ~key ~slot:_ -> key :: acc) in
  Alcotest.(check (list int))
    "same history, same iteration order"
    (order (build ()))
    (order (build ()))

let () =
  Alcotest.run "conn_table"
    [
      ( "unit",
        [
          Alcotest.test_case "basic add/find/replace/remove" `Quick test_basic;
          Alcotest.test_case "rejects non-positive keys" `Quick
            test_rejects_nonpositive_keys;
          Alcotest.test_case "free-list slot reuse" `Quick test_slot_reuse;
          Alcotest.test_case "growth keeps entries" `Quick test_growth;
          Alcotest.test_case "freed payloads are collectable" `Quick
            test_payload_released_on_free;
          Alcotest.test_case "deterministic iteration" `Quick
            test_iteration_deterministic;
        ] );
      ("differential", [ QCheck_alcotest.to_alcotest prop_differential ]);
    ]
