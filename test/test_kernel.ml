(* Tests for the kernel library: bit twiddling, wait queues, sockets,
   epoll, the eBPF model, maps, and reuseport groups. *)

let ast_verify = Drive.ast_verify

let check = Alcotest.check

let pending seq =
  {
    Kernel.Socket.seq;
    tuple = { Netsim.Addr.src_ip = 1; src_port = seq; dst_ip = 2; dst_port = 80 };
    flow_hash = seq * 2654435761;
    tenant_id = 0;
  }

(* ------------------------------------------------------------------ *)
(* Bitops                                                               *)

let naive_popcount v =
  let c = ref 0 in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then incr c
  done;
  !c

let naive_nth_set v n =
  let seen = ref 0 and result = ref (-1) in
  for i = 0 to 63 do
    if !result = -1 && Int64.logand (Int64.shift_right_logical v i) 1L = 1L
    then begin
      incr seen;
      if !seen = n then result := i
    end
  done;
  !result

let test_popcount_cases () =
  check Alcotest.int "zero" 0 (Kernel.Bitops.popcount64 0L);
  check Alcotest.int "all ones" 64 (Kernel.Bitops.popcount64 (-1L));
  check Alcotest.int "one bit" 1 (Kernel.Bitops.popcount64 Int64.min_int);
  check Alcotest.int "0xFF" 8 (Kernel.Bitops.popcount64 0xFFL)

let prop_popcount =
  QCheck.Test.make ~name:"popcount64 matches naive" ~count:1000 QCheck.int64
    (fun v -> Kernel.Bitops.popcount64 v = naive_popcount v)

let test_find_nth_cases () =
  check Alcotest.int "first of 0b1010" 1 (Kernel.Bitops.find_nth_set 0b1010L 1);
  check Alcotest.int "second of 0b1010" 3 (Kernel.Bitops.find_nth_set 0b1010L 2);
  check Alcotest.int "too few" (-1) (Kernel.Bitops.find_nth_set 0b1010L 3);
  check Alcotest.int "n=0" (-1) (Kernel.Bitops.find_nth_set 0b1010L 0);
  check Alcotest.int "empty" (-1) (Kernel.Bitops.find_nth_set 0L 1);
  check Alcotest.int "msb" 63 (Kernel.Bitops.find_nth_set Int64.min_int 1)

let prop_find_nth =
  QCheck.Test.make ~name:"find_nth_set matches naive" ~count:1000
    QCheck.(pair int64 (int_range 1 64))
    (fun (v, n) -> Kernel.Bitops.find_nth_set v n = naive_nth_set v n)

let test_reciprocal_scale_range () =
  let rng = Engine.Rng.create 1 in
  for _ = 1 to 10_000 do
    let h = Engine.Rng.int rng 0x7FFFFFFF in
    let n = 1 + Engine.Rng.int rng 64 in
    let v = Kernel.Bitops.reciprocal_scale ~hash:h ~n in
    check Alcotest.bool "in [0,n)" true (v >= 0 && v < n)
  done;
  Alcotest.check_raises "n=0"
    (Invalid_argument "Bitops.reciprocal_scale: n must be positive") (fun () ->
      ignore (Kernel.Bitops.reciprocal_scale ~hash:1 ~n:0))

let test_reciprocal_scale_uniform () =
  (* uniform hashes spread roughly evenly over n buckets *)
  let counts = Array.make 7 0 in
  let rng = Engine.Rng.create 2 in
  for _ = 1 to 70_000 do
    let h = Engine.Rng.int rng 0xFFFFFFFF in
    let b = Kernel.Bitops.reciprocal_scale ~hash:h ~n:7 in
    counts.(b) <- counts.(b) + 1
  done;
  Array.iter
    (fun c -> check Alcotest.bool "near 10000" true (abs (c - 10_000) < 1_000))
    counts

let test_bit_list_roundtrip () =
  let positions = [ 0; 5; 17; 63 ] in
  let bm = Kernel.Bitops.bits_of_list positions in
  check Alcotest.(list int) "roundtrip" positions (Bitmap.to_list bm);
  check Alcotest.bool "is_set" true (Bitmap.is_set bm 17);
  check Alcotest.bool "not set" false (Bitmap.is_set bm 18);
  let bm = Kernel.Bitops.clear_bit bm 17 in
  check Alcotest.(list int) "cleared" [ 0; 5; 63 ] (Bitmap.to_list bm);
  Alcotest.check_raises "range"
    (Invalid_argument "Bitops.bits_of_list: position out of range") (fun () ->
      ignore (Kernel.Bitops.bits_of_list [ 64 ]))

(* ------------------------------------------------------------------ *)
(* Waitqueue                                                            *)

let always_wake woken id () =
  woken := id :: !woken;
  true

(* One wake and the [Wq_wake] record it emits: the waiters woken, the
   traversal order at its start, and the waiters it visited. *)
let traced_wake wq =
  let n = ref 0 in
  match Capture.records (fun () -> n := Kernel.Waitqueue.wake wq) with
  | [ { Trace.event = Trace.Wq_wake { queue; woken; steps; _ }; _ } ] ->
    (!n, queue, woken, steps)
  | _ -> Alcotest.fail "expected one wq.wake record"

let test_wq_lifo_order () =
  let wq = Kernel.Waitqueue.create Kernel.Waitqueue.Lifo_exclusive in
  let woken = ref [] in
  for id = 0 to 3 do
    Kernel.Waitqueue.register wq ~id ~try_wake:(always_wake woken id)
  done;
  let n, queue, _, _ = traced_wake wq in
  check Alcotest.(list int) "head is last registered" [ 3; 2; 1; 0 ] queue;
  check Alcotest.int "one woken" 1 n;
  check Alcotest.(list int) "worker 3 woken" [ 3 ] !woken;
  (* order unchanged for LIFO: next wake also goes to 3 *)
  check Alcotest.int "again" 1 (Kernel.Waitqueue.wake wq);
  check Alcotest.(list int) "still worker 3" [ 3; 3 ] !woken

let test_wq_skips_busy () =
  let wq = Kernel.Waitqueue.create Kernel.Waitqueue.Lifo_exclusive in
  let woken = ref [] in
  (* worker 3 (head) refuses (busy) *)
  Kernel.Waitqueue.register wq ~id:0 ~try_wake:(always_wake woken 0);
  Kernel.Waitqueue.register wq ~id:3 ~try_wake:(fun () -> false);
  let n, _, _, steps = traced_wake wq in
  check Alcotest.int "one woken" 1 n;
  check Alcotest.(list int) "fell through to 0" [ 0 ] !woken;
  check Alcotest.int "steps counted" 2 steps

let test_wq_all_busy () =
  let wq = Kernel.Waitqueue.create Kernel.Waitqueue.Lifo_exclusive in
  Kernel.Waitqueue.register wq ~id:0 ~try_wake:(fun () -> false);
  Kernel.Waitqueue.register wq ~id:1 ~try_wake:(fun () -> false);
  check Alcotest.int "nobody woken" 0 (Kernel.Waitqueue.wake wq)

let test_wq_roundrobin_rotates () =
  let wq = Kernel.Waitqueue.create Kernel.Waitqueue.Roundrobin_exclusive in
  let woken = ref [] in
  for id = 0 to 2 do
    Kernel.Waitqueue.register wq ~id ~try_wake:(always_wake woken id)
  done;
  (* order: [2;1;0]; each wake rotates the woken worker to the tail *)
  ignore (Kernel.Waitqueue.wake wq);
  ignore (Kernel.Waitqueue.wake wq);
  ignore (Kernel.Waitqueue.wake wq);
  ignore (Kernel.Waitqueue.wake wq);
  check Alcotest.(list int) "round robin" [ 2; 1; 0; 2 ] (List.rev !woken)

let test_wq_fifo_order () =
  let wq = Kernel.Waitqueue.create Kernel.Waitqueue.Fifo_exclusive in
  let woken = ref [] in
  for id = 0 to 2 do
    Kernel.Waitqueue.register wq ~id ~try_wake:(always_wake woken id)
  done;
  (* FIFO tries the oldest registration (id 0) first, every time *)
  ignore (Kernel.Waitqueue.wake wq);
  ignore (Kernel.Waitqueue.wake wq);
  check Alcotest.(list int) "oldest first" [ 0; 0 ] (List.rev !woken)

let test_wq_wake_all () =
  let wq = Kernel.Waitqueue.create Kernel.Waitqueue.Wake_all in
  let woken = ref [] in
  for id = 0 to 2 do
    Kernel.Waitqueue.register wq ~id ~try_wake:(always_wake woken id)
  done;
  let n, _, woken_ids, _ = traced_wake wq in
  check Alcotest.int "thundering herd" 3 n;
  check Alcotest.int "wakeups counted" 3 (List.length woken_ids)

let test_wq_unregister () =
  let wq = Kernel.Waitqueue.create Kernel.Waitqueue.Lifo_exclusive in
  let woken = ref [] in
  Kernel.Waitqueue.register wq ~id:0 ~try_wake:(always_wake woken 0);
  Kernel.Waitqueue.register wq ~id:1 ~try_wake:(always_wake woken 1);
  Kernel.Waitqueue.unregister wq ~id:1;
  ignore (Kernel.Waitqueue.wake wq);
  check Alcotest.(list int) "only 0 left" [ 0 ] !woken;
  (* unknown id ignored *)
  Kernel.Waitqueue.unregister wq ~id:42

let test_wq_duplicate_register () =
  let wq = Kernel.Waitqueue.create Kernel.Waitqueue.Lifo_exclusive in
  Kernel.Waitqueue.register wq ~id:0 ~try_wake:(fun () -> true);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Waitqueue.register: id already registered") (fun () ->
      Kernel.Waitqueue.register wq ~id:0 ~try_wake:(fun () -> true))

(* Mutation during a wake traversal: the snapshot semantics. *)

let test_wq_unregister_mid_wake_all () =
  (* Waiter 2 (visited first) unregisters waiter 0 from its callback;
     0 must be skipped, not woken through a stale cursor. *)
  let wq = Kernel.Waitqueue.create Kernel.Waitqueue.Wake_all in
  let woken = ref [] in
  Kernel.Waitqueue.register wq ~id:0 ~try_wake:(always_wake woken 0);
  Kernel.Waitqueue.register wq ~id:1 ~try_wake:(always_wake woken 1);
  Kernel.Waitqueue.register wq ~id:2 ~try_wake:(fun () ->
      Kernel.Waitqueue.unregister wq ~id:0;
      woken := 2 :: !woken;
      true);
  check Alcotest.int "two woken" 2 (Kernel.Waitqueue.wake wq);
  check Alcotest.(list int) "0 skipped" [ 2; 1 ] (List.rev !woken);
  let _, queue, _, _ = traced_wake wq in
  check Alcotest.(list int) "0 gone afterwards" [ 2; 1 ] queue

let test_wq_register_mid_wake_all () =
  (* A waiter registered from inside a callback joins the queue but is
     not visited until the next wake. *)
  let wq = Kernel.Waitqueue.create Kernel.Waitqueue.Wake_all in
  let woken = ref [] in
  Kernel.Waitqueue.register wq ~id:0 ~try_wake:(always_wake woken 0);
  let spawned = ref false in
  Kernel.Waitqueue.register wq ~id:1 ~try_wake:(fun () ->
      if not !spawned then begin
        spawned := true;
        Kernel.Waitqueue.register wq ~id:9 ~try_wake:(always_wake woken 9)
      end;
      woken := 1 :: !woken;
      true);
  check Alcotest.int "only the snapshot woken" 2 (Kernel.Waitqueue.wake wq);
  check Alcotest.(list int) "9 not visited this round" [ 1; 0 ] (List.rev !woken);
  check Alcotest.int "all three next round" 3 (Kernel.Waitqueue.wake wq);
  check Alcotest.bool "9 visited next round" true (List.mem 9 !woken)

let test_wq_rr_self_unregister_not_requeued () =
  (* A round-robin waiter that accepts the wake and unregisters itself
     in the same callback must not be rotated back into the ring. *)
  let wq = Kernel.Waitqueue.create Kernel.Waitqueue.Roundrobin_exclusive in
  let woken = ref [] in
  Kernel.Waitqueue.register wq ~id:0 ~try_wake:(always_wake woken 0);
  Kernel.Waitqueue.register wq ~id:1 ~try_wake:(fun () ->
      Kernel.Waitqueue.unregister wq ~id:1;
      woken := 1 :: !woken;
      true);
  (* order is [1; 0]: wake hits 1, which removes itself *)
  check Alcotest.int "one woken" 1 (Kernel.Waitqueue.wake wq);
  let n, queue, _, _ = traced_wake wq in
  check Alcotest.(list int) "only 0 remains" [ 0 ] queue;
  check Alcotest.int "0 wakes next" 1 n;
  check Alcotest.(list int) "1 never re-queued" [ 1; 0 ] (List.rev !woken)

let test_wq_exclusive_skips_unregistered_ahead () =
  (* A busy waiter's callback unregisters a waiter further along the
     walk; the walk must skip it and fall through to the next one. *)
  let wq = Kernel.Waitqueue.create Kernel.Waitqueue.Lifo_exclusive in
  let woken = ref [] in
  Kernel.Waitqueue.register wq ~id:0 ~try_wake:(always_wake woken 0);
  Kernel.Waitqueue.register wq ~id:1 ~try_wake:(always_wake woken 1);
  (* head of the LIFO walk: busy, and it tears down waiter 1 *)
  Kernel.Waitqueue.register wq ~id:2 ~try_wake:(fun () ->
      Kernel.Waitqueue.unregister wq ~id:1;
      false);
  check Alcotest.int "one woken" 1 (Kernel.Waitqueue.wake wq);
  check Alcotest.(list int) "fell through past 1 to 0" [ 0 ] !woken

(* ------------------------------------------------------------------ *)
(* Socket                                                               *)

let test_socket_fifo () =
  let s = Kernel.Socket.create_listen ~port:80 ~backlog:10 () in
  check Alcotest.bool "queued" true (Kernel.Socket.push s (pending 1) = `Queued);
  check Alcotest.bool "queued" true (Kernel.Socket.push s (pending 2) = `Queued);
  (match Kernel.Socket.accept s with
  | Some p -> check Alcotest.int "fifo" 1 p.Kernel.Socket.seq
  | None -> Alcotest.fail "expected conn");
  check Alcotest.int "backlog" 1 (Kernel.Socket.backlog_len s)

let test_socket_backlog_overflow () =
  let s = Kernel.Socket.create_listen ~port:80 ~backlog:2 () in
  ignore (Kernel.Socket.push s (pending 1));
  ignore (Kernel.Socket.push s (pending 2));
  check Alcotest.bool "dropped" true (Kernel.Socket.push s (pending 3) = `Dropped);
  check Alcotest.int "queue stays full" 2 (Kernel.Socket.backlog_len s)

let test_socket_close_drains () =
  let s = Kernel.Socket.create_listen ~port:80 ~backlog:10 () in
  ignore (Kernel.Socket.push s (pending 1));
  ignore (Kernel.Socket.push s (pending 2));
  let orphans = Kernel.Socket.close s in
  check Alcotest.int "drained" 2 (List.length orphans);
  check Alcotest.bool "push after close drops" true
    (Kernel.Socket.push s (pending 3) = `Dropped);
  check Alcotest.bool "accept empty" true (Kernel.Socket.accept s = None)

let test_socket_unique_ids () =
  let a = Kernel.Socket.create_listen ~port:1 ~backlog:1 () in
  let b = Kernel.Socket.create_listen ~port:1 ~backlog:1 () in
  check Alcotest.bool "distinct ids" true (Kernel.Socket.id a <> Kernel.Socket.id b)

(* ------------------------------------------------------------------ *)
(* Epoll                                                                *)

(* The events of one [Epoll.wait], as (fd, kind, units) triples. *)
let poll ep ~max_events =
  List.init (Kernel.Epoll.wait ep ~max_events) (fun i ->
      ( Kernel.Epoll.event_fd ep i,
        Kernel.Epoll.event_kind ep i,
        Kernel.Epoll.event_units ep i ))

let test_epoll_conn_readiness () =
  let ep = Kernel.Epoll.create ~worker_id:0 in
  Kernel.Epoll.add_conn ep ~fd:5;
  Kernel.Epoll.notify_readable ep ~fd:5 ~units:2;
  Kernel.Epoll.notify_readable ep ~fd:5 ~units:1;
  (match poll ep ~max_events:16 with
  | [ (fd, kind, units) ] ->
    check Alcotest.int "fd" 5 fd;
    check Alcotest.int "units coalesced" 3 units;
    check Alcotest.bool "readable" true (kind = Kernel.Epoll.Readable)
  | evs -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length evs)));
  check Alcotest.(list Alcotest.reject) "drained" []
    (List.map (fun _ -> ()) (poll ep ~max_events:16))

let test_epoll_unknown_fd_ignored () =
  let ep = Kernel.Epoll.create ~worker_id:0 in
  Kernel.Epoll.notify_readable ep ~fd:99 ~units:1;
  check Alcotest.int "nothing" 0 (List.length (poll ep ~max_events:4))

let test_epoll_wakeup_callback () =
  let ep = Kernel.Epoll.create ~worker_id:0 in
  let pokes = ref 0 in
  Kernel.Epoll.set_wakeup ep (fun () -> incr pokes);
  Kernel.Epoll.add_conn ep ~fd:1;
  Kernel.Epoll.notify_readable ep ~fd:1 ~units:1;
  check Alcotest.int "one poke" 1 !pokes

let test_epoll_dedicated_accept () =
  let ep = Kernel.Epoll.create ~worker_id:0 in
  let sock = Kernel.Socket.create_listen ~port:80 ~backlog:8 () in
  Kernel.Epoll.add_listening ep ~fd:3 ~socket:sock ~shared:false;
  ignore (Kernel.Socket.push sock (pending 1));
  ignore (Kernel.Socket.push sock (pending 2));
  (match poll ep ~max_events:4 with
  | [ (_, kind, units) ] ->
    check Alcotest.bool "accept kind" true (kind = Kernel.Epoll.Accept_ready);
    check Alcotest.int "coalesced" 2 units
  | _ -> Alcotest.fail "expected one accept event");
  (* dedicated sockets are not scanned *)
  check Alcotest.int "no scan" 0 (Kernel.Epoll.last_scan_cost ep)

let test_epoll_shared_scan () =
  let ep = Kernel.Epoll.create ~worker_id:0 in
  let s1 = Kernel.Socket.create_listen ~port:80 ~backlog:8 () in
  let s2 = Kernel.Socket.create_listen ~port:81 ~backlog:8 () in
  Kernel.Epoll.add_listening ep ~fd:1 ~socket:s1 ~shared:true;
  Kernel.Epoll.add_listening ep ~fd:2 ~socket:s2 ~shared:true;
  ignore (Kernel.Socket.push s2 (pending 9));
  (match poll ep ~max_events:4 with
  | [ (fd, _, units) ] ->
    check Alcotest.int "ready fd" 2 fd;
    check Alcotest.int "units = backlog" 1 units
  | evs -> Alcotest.fail (Printf.sprintf "expected 1, got %d" (List.length evs)));
  check Alcotest.int "scanned both" 2 (Kernel.Epoll.last_scan_cost ep)

let test_epoll_max_events () =
  let ep = Kernel.Epoll.create ~worker_id:0 in
  for fd = 1 to 10 do
    Kernel.Epoll.add_conn ep ~fd;
    Kernel.Epoll.notify_readable ep ~fd ~units:1
  done;
  let first = poll ep ~max_events:4 in
  check Alcotest.int "capped" 4 (List.length first);
  let rest = poll ep ~max_events:100 in
  check Alcotest.int "remainder" 6 (List.length rest)

let test_epoll_close_discards () =
  let ep = Kernel.Epoll.create ~worker_id:0 in
  Kernel.Epoll.add_conn ep ~fd:7;
  Kernel.Epoll.notify_readable ep ~fd:7 ~units:3;
  Kernel.Epoll.remove_conn ep ~fd:7;
  check Alcotest.int "no events after close" 0
    (List.length (poll ep ~max_events:4));
  check Alcotest.int "pending cleared" 0 (Kernel.Epoll.pending_units ep)

let test_epoll_duplicate_fd () =
  let ep = Kernel.Epoll.create ~worker_id:0 in
  Kernel.Epoll.add_conn ep ~fd:7;
  Alcotest.check_raises "dup" (Invalid_argument "Epoll.add_conn: duplicate fd")
    (fun () -> Kernel.Epoll.add_conn ep ~fd:7)

(* The per-event readiness path hashes and allocates nothing: register,
   notify, poll and close a connection fd at steady state, beside 64
   long-lived ones. *)
let test_epoll_zero_alloc () =
  let ep = Kernel.Epoll.create ~worker_id:0 in
  for fd = 1 to 64 do
    Kernel.Epoll.add_conn ep ~fd
  done;
  let round i =
    let fd = 100 + (i land 63) in
    Kernel.Epoll.add_conn ep ~fd;
    Kernel.Epoll.notify_readable ep ~fd ~units:1;
    Kernel.Epoll.notify_readable ep ~fd:(1 + (i land 63)) ~units:2;
    if i land 3 = 0 then ignore (Kernel.Epoll.wait ep ~max_events:64);
    Kernel.Epoll.notify_readable ep ~fd ~units:1;
    Kernel.Epoll.remove_conn ep ~fd
  in
  for i = 1 to Alloc_gate.rounds do
    round i
  done;
  Alloc_gate.check "epoll notify + remove" round

let test_epoll_counts () =
  let ep = Kernel.Epoll.create ~worker_id:0 in
  let s = Kernel.Socket.create_listen ~port:80 ~backlog:8 () in
  Kernel.Epoll.add_listening ep ~fd:1 ~socket:s ~shared:true;
  Kernel.Epoll.add_conn ep ~fd:2;
  check Alcotest.int "listening" 1 (Kernel.Epoll.listening_count ep);
  check Alcotest.int "conns" 1 (Kernel.Epoll.conn_count ep);
  Kernel.Epoll.remove_conn ep ~fd:2;
  check Alcotest.int "conn removed" 0 (Kernel.Epoll.conn_count ep)

(* Shared-listener registration is amortized O(1): N registrations
   allocate O(N) words in total.  Major words count too, since any
   array copy over 256 words is allocated directly in the major heap.
   The scan visits listeners in registration order. *)
let test_epoll_shared_registration_linear () =
  let n = 4096 in
  let ep = Kernel.Epoll.create ~worker_id:0 in
  let socks =
    Array.init n (fun i -> Kernel.Socket.create_listen ~port:(1000 + i) ~backlog:8 ())
  in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = allocated () in
  Array.iteri
    (fun fd socket -> Kernel.Epoll.add_listening ep ~fd ~socket ~shared:true)
    socks;
  let per_registration = (allocated () -. before) /. float_of_int n in
  if per_registration > 64. then
    Alcotest.failf "%.0f words per shared registration at %d registrations"
      per_registration n;
  List.iter (fun fd -> ignore (Kernel.Socket.push socks.(fd) (pending fd))) [ 9; 7 ];
  check
    Alcotest.(list int)
    "scan order" [ 7; 9 ]
    (List.map (fun (fd, _, _) -> fd) (poll ep ~max_events:8));
  check Alcotest.int "scan cost" n (Kernel.Epoll.last_scan_cost ep)

(* ------------------------------------------------------------------ *)
(* Ebpf maps                                                            *)

let test_array_map () =
  let m = Kernel.Ebpf_maps.Array_map.create ~name:"m" ~size:4 in
  check Alcotest.int64 "init zero" 0L (Kernel.Ebpf_maps.Array_map.lookup m 0);
  Kernel.Ebpf_maps.Array_map.kernel_update m 2 7L;
  check Alcotest.int64 "stored" 7L (Kernel.Ebpf_maps.Array_map.lookup m 2);
  try
    ignore (Kernel.Ebpf_maps.Array_map.lookup m 4);
    Alcotest.fail "expected out-of-range"
  with Invalid_argument _ -> ()

let test_sockarray () =
  let m = Kernel.Ebpf_maps.Sockarray.create ~name:"s" ~size:2 in
  check Alcotest.bool "empty" true (Kernel.Ebpf_maps.Sockarray.get m 0 = None);
  let sock = Kernel.Socket.create_listen ~port:80 ~backlog:1 () in
  Kernel.Ebpf_maps.Sockarray.set m 1 sock;
  (match Kernel.Ebpf_maps.Sockarray.get m 1 with
  | Some s -> check Alcotest.int "same socket" (Kernel.Socket.id sock) (Kernel.Socket.id s)
  | None -> Alcotest.fail "expected socket");
  Kernel.Ebpf_maps.Sockarray.clear m 1;
  check Alcotest.bool "cleared" true (Kernel.Ebpf_maps.Sockarray.get m 1 = None)

(* Each userspace map update is one [Map_update] record carrying the
   stored value. *)
let test_syscall_counter () =
  let m = Kernel.Ebpf_maps.Array_map.create ~name:"m" ~size:1 in
  let records =
    Capture.records (fun () ->
        Kernel.Ebpf_maps.Syscall.update_elem m 0 5L;
        Kernel.Ebpf_maps.Syscall.update_elem m 0 7L)
  in
  check Alcotest.(list int64) "two updates" [ 5L; 7L ]
    (List.filter_map
       (fun r ->
         match r.Trace.event with
         | Trace.Map_update { value; _ } -> Some value
         | _ -> None)
       records);
  check Alcotest.int64 "stored" 7L (Kernel.Ebpf_maps.Array_map.lookup m 0)

(* ------------------------------------------------------------------ *)
(* Ebpf                                                                 *)

let ctx = { Kernel.Ebpf.flow_hash = 0x1234_5678; dst_port = 8080 }

let run_ret body =
  let prog = Kernel.Ebpf.verify_exn { Kernel.Ebpf.name = "t"; body } in
  fst (Kernel.Ebpf.run prog ctx)

let test_ebpf_verifier_unbound_var () =
  match ast_verify { Kernel.Ebpf.name = "bad"; body = Kernel.Ebpf.Select
    (Kernel.Ebpf_maps.Sockarray.create ~name:"s" ~size:1, Kernel.Ebpf.Var "r") } with
  | Error msg ->
    check Alcotest.bool "mentions register" true
      (String.length msg > 0 && String.sub msg 0 8 = "verifier")
  | Ok _ -> Alcotest.fail "unbound register accepted"

let test_ebpf_verifier_budget () =
  (* a chain of Adds exceeding the instruction budget *)
  let rec huge n =
    if n = 0 then Kernel.Ebpf.Const 1L
    else Kernel.Ebpf.Add (Kernel.Ebpf.Const 1L, huge (n - 1))
  in
  let sa = Kernel.Ebpf_maps.Sockarray.create ~name:"s" ~size:1 in
  match
    ast_verify { Kernel.Ebpf.name = "huge"; body = Kernel.Ebpf.Select (sa, huge 5000) }
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized program accepted"

let test_ebpf_verifier_name_required () =
  match ast_verify { Kernel.Ebpf.name = ""; body = Kernel.Ebpf.Fallback } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unnamed program accepted"

let test_ebpf_basic_outcomes () =
  check Alcotest.bool "fallback" true (run_ret Kernel.Ebpf.Fallback = Kernel.Ebpf.Fell_back);
  check Alcotest.bool "drop" true (run_ret Kernel.Ebpf.Drop = Kernel.Ebpf.Dropped)

let test_ebpf_select () =
  let sa = Kernel.Ebpf_maps.Sockarray.create ~name:"s" ~size:2 in
  let sock = Kernel.Socket.create_listen ~port:80 ~backlog:1 () in
  Kernel.Ebpf_maps.Sockarray.set sa 1 sock;
  (match run_ret (Kernel.Ebpf.Select (sa, Kernel.Ebpf.Const 1L)) with
  | Kernel.Ebpf.Selected s ->
    check Alcotest.int "selected" (Kernel.Socket.id sock) (Kernel.Socket.id s)
  | _ -> Alcotest.fail "expected selection");
  (* empty slot faults -> fallback *)
  check Alcotest.bool "empty slot" true
    (run_ret (Kernel.Ebpf.Select (sa, Kernel.Ebpf.Const 0L)) = Kernel.Ebpf.Fell_back);
  (* out of range faults -> fallback *)
  check Alcotest.bool "oob" true
    (run_ret (Kernel.Ebpf.Select (sa, Kernel.Ebpf.Const 9L)) = Kernel.Ebpf.Fell_back)

let test_ebpf_arith () =
  let open Kernel.Ebpf in
  let sa = Kernel.Ebpf_maps.Sockarray.create ~name:"s" ~size:8 in
  let sock = Kernel.Socket.create_listen ~port:80 ~backlog:1 () in
  Kernel.Ebpf_maps.Sockarray.set sa 5 sock;
  (* (2 + 3) selects slot 5 *)
  (match run_ret (Select (sa, Add (Const 2L, Const 3L))) with
  | Selected _ -> ()
  | _ -> Alcotest.fail "arith failed");
  (* 13 mod 8 = 5 *)
  (match run_ret (Select (sa, Mod (Const 13L, Const 8L))) with
  | Selected _ -> ()
  | _ -> Alcotest.fail "mod failed");
  (* mod by zero faults *)
  check Alcotest.bool "mod zero" true
    (run_ret (Select (sa, Mod (Const 13L, Const 0L))) = Fell_back);
  (* shift out of range faults *)
  check Alcotest.bool "shift range" true
    (run_ret (Select (sa, Shl (Const 1L, Const 64L))) = Fell_back)

let test_ebpf_let_scoping () =
  let open Kernel.Ebpf in
  let sa = Kernel.Ebpf_maps.Sockarray.create ~name:"s" ~size:8 in
  let sock = Kernel.Socket.create_listen ~port:80 ~backlog:1 () in
  Kernel.Ebpf_maps.Sockarray.set sa 6 sock;
  (* let x = 2 in let x = x * 3 via Add -> shadowing works *)
  let body =
    Let_ret
      ( "x",
        Const 2L,
        Let_ret ("x", Add (Var "x", Const 4L), Select (sa, Var "x")) )
  in
  match run_ret body with
  | Selected _ -> ()
  | _ -> Alcotest.fail "let scoping failed"

let test_ebpf_conditionals () =
  let open Kernel.Ebpf in
  check Alcotest.bool "if true" true
    (run_ret (If (Gt, Const 2L, Const 1L, Drop, Fallback)) = Dropped);
  check Alcotest.bool "if false" true
    (run_ret (If (Lt, Const 2L, Const 1L, Drop, Fallback)) = Fell_back);
  check Alcotest.bool "eq" true
    (run_ret (If (Eq, Flow_hash, Const (Int64.of_int ctx.Kernel.Ebpf.flow_hash), Drop, Fallback))
    = Dropped);
  check Alcotest.bool "dst_port" true
    (run_ret (If (Eq, Dst_port, Const 8080L, Drop, Fallback)) = Dropped)

let test_ebpf_helpers () =
  let open Kernel.Ebpf in
  (* popcount and find_nth_set through the interpreter *)
  check Alcotest.bool "popcount" true
    (run_ret (If (Eq, Popcount (Const 0b1011L), Const 3L, Drop, Fallback)) = Dropped);
  check Alcotest.bool "find_nth" true
    (run_ret
       (If (Eq, Find_nth_set (Const 0b1010L, Const 2L), Const 3L, Drop, Fallback))
    = Dropped);
  (* lookup *)
  let m = Kernel.Ebpf_maps.Array_map.create ~name:"m" ~size:2 in
  Kernel.Ebpf_maps.Array_map.kernel_update m 1 99L;
  check Alcotest.bool "lookup" true
    (run_ret (If (Eq, Lookup (m, Const 1L), Const 99L, Drop, Fallback)) = Dropped);
  (* out-of-range lookup faults the program *)
  check Alcotest.bool "lookup oob" true
    (run_ret (If (Eq, Lookup (m, Const 5L), Const 0L, Drop, Drop)) = Fell_back)

let test_ebpf_cycles_counted () =
  let prog =
    Kernel.Ebpf.verify_exn
      { Kernel.Ebpf.name = "c"; body = Kernel.Ebpf.Fallback }
  in
  let _, cycles = Kernel.Ebpf.run prog ctx in
  check Alcotest.bool "positive cycles" true (cycles > 0)

(* ------------------------------------------------------------------ *)
(* Reuseport                                                            *)

let make_group n =
  let g = Kernel.Reuseport.create ~port:80 ~slots:n in
  let socks =
    Array.init n (fun i ->
        let s = Kernel.Socket.create_listen ~port:80 ~backlog:8 () in
        Kernel.Reuseport.bind g ~slot:i ~socket:s;
        s)
  in
  (g, socks)

let test_reuseport_hash_deterministic () =
  let g, _ = make_group 4 in
  let pick () =
    match Kernel.Reuseport.select g ~flow_hash:0xABCDEF with
    | Some s -> Kernel.Socket.id s
    | None -> -1
  in
  check Alcotest.int "stable" (pick ()) (pick ())

let test_reuseport_spread () =
  let g, socks = make_group 4 in
  let counts = Array.make 4 0 in
  let rng = Engine.Rng.create 5 in
  for _ = 1 to 4000 do
    match Kernel.Reuseport.select g ~flow_hash:(Engine.Rng.int rng 0xFFFFFFFF) with
    | Some s ->
      Array.iteri (fun i s' -> if Kernel.Socket.id s' = Kernel.Socket.id s then counts.(i) <- counts.(i) + 1) socks
    | None -> Alcotest.fail "no socket"
  done;
  Array.iter
    (fun c -> check Alcotest.bool "roughly even" true (abs (c - 1000) < 250))
    counts

let test_reuseport_unbind () =
  let g, socks = make_group 2 in
  Kernel.Reuseport.unbind g ~slot:0;
  check Alcotest.int "live" 1 (Kernel.Bitops.popcount64 (Kernel.Reuseport.live_bitmap g));
  for h = 0 to 100 do
    match Kernel.Reuseport.select g ~flow_hash:(h * 7919) with
    | Some s -> check Alcotest.int "only survivor" (Kernel.Socket.id socks.(1)) (Kernel.Socket.id s)
    | None -> Alcotest.fail "no socket"
  done

let test_reuseport_empty () =
  let g = Kernel.Reuseport.create ~port:80 ~slots:2 in
  check Alcotest.bool "none" true (Kernel.Reuseport.select g ~flow_hash:1 = None)

let test_reuseport_prog_overrides () =
  let g, socks = make_group 4 in
  let sa = Kernel.Ebpf_maps.Sockarray.create ~name:"s" ~size:4 in
  Array.iteri (fun i s -> Kernel.Ebpf_maps.Sockarray.set sa i s) socks;
  (* always select slot 2 *)
  let prog =
    Kernel.Ebpf.verify_exn
      { Kernel.Ebpf.name = "pin2"; body = Kernel.Ebpf.Select (sa, Kernel.Ebpf.Const 2L) }
  in
  Kernel.Reuseport.attach_ebpf g ~name:"pin2" prog;
  for h = 1 to 50 do
    match Kernel.Reuseport.select g ~flow_hash:(h * 104729) with
    | Some s -> check Alcotest.int "pinned" (Kernel.Socket.id socks.(2)) (Kernel.Socket.id s)
    | None -> Alcotest.fail "no socket"
  done;
  let stats = Kernel.Reuseport.stats g in
  check Alcotest.int "by prog" 50 stats.Kernel.Reuseport.selected_by_prog;
  check Alcotest.bool "cycles accumulate" true (stats.Kernel.Reuseport.prog_cycles > 0)

let test_reuseport_prog_fallback () =
  let g, _ = make_group 4 in
  let prog =
    Kernel.Ebpf.verify_exn { Kernel.Ebpf.name = "fb"; body = Kernel.Ebpf.Fallback }
  in
  Kernel.Reuseport.attach_ebpf g ~name:"fb" prog;
  (match Kernel.Reuseport.select g ~flow_hash:7 with
  | Some _ -> ()
  | None -> Alcotest.fail "fallback should hash");
  let stats = Kernel.Reuseport.stats g in
  check Alcotest.int "hash used" 1 stats.Kernel.Reuseport.selected_by_hash

let test_reuseport_prog_drop () =
  let g, _ = make_group 2 in
  let prog =
    Kernel.Ebpf.verify_exn { Kernel.Ebpf.name = "drop"; body = Kernel.Ebpf.Drop }
  in
  Kernel.Reuseport.attach_ebpf g ~name:"drop" prog;
  check Alcotest.bool "dropped" true (Kernel.Reuseport.select g ~flow_hash:7 = None);
  check Alcotest.int "counted" 1 (Kernel.Reuseport.stats g).Kernel.Reuseport.dropped

let test_reuseport_bind_errors () =
  let g, _ = make_group 2 in
  let s = Kernel.Socket.create_listen ~port:80 ~backlog:1 () in
  Alcotest.check_raises "slot taken" (Invalid_argument "Reuseport.bind: slot taken")
    (fun () -> Kernel.Reuseport.bind g ~slot:0 ~socket:s);
  let wrong = Kernel.Socket.create_listen ~port:81 ~backlog:1 () in
  let g2 = Kernel.Reuseport.create ~port:80 ~slots:2 in
  Alcotest.check_raises "port mismatch"
    (Invalid_argument "Reuseport.bind: socket port differs from group port")
    (fun () -> Kernel.Reuseport.bind g2 ~slot:0 ~socket:wrong)

let () =
  Alcotest.run "kernel"
    [
      ( "bitops",
        [
          Alcotest.test_case "popcount cases" `Quick test_popcount_cases;
          QCheck_alcotest.to_alcotest prop_popcount;
          Alcotest.test_case "find_nth cases" `Quick test_find_nth_cases;
          QCheck_alcotest.to_alcotest prop_find_nth;
          Alcotest.test_case "reciprocal_scale range" `Quick test_reciprocal_scale_range;
          Alcotest.test_case "reciprocal_scale uniform" `Quick test_reciprocal_scale_uniform;
          Alcotest.test_case "bit list roundtrip" `Quick test_bit_list_roundtrip;
        ] );
      ( "waitqueue",
        [
          Alcotest.test_case "lifo order" `Quick test_wq_lifo_order;
          Alcotest.test_case "skips busy" `Quick test_wq_skips_busy;
          Alcotest.test_case "all busy" `Quick test_wq_all_busy;
          Alcotest.test_case "round robin" `Quick test_wq_roundrobin_rotates;
          Alcotest.test_case "fifo order" `Quick test_wq_fifo_order;
          Alcotest.test_case "wake all" `Quick test_wq_wake_all;
          Alcotest.test_case "unregister" `Quick test_wq_unregister;
          Alcotest.test_case "duplicate register" `Quick test_wq_duplicate_register;
          Alcotest.test_case "unregister mid wake_all" `Quick
            test_wq_unregister_mid_wake_all;
          Alcotest.test_case "register mid wake_all" `Quick
            test_wq_register_mid_wake_all;
          Alcotest.test_case "rr self-unregister not requeued" `Quick
            test_wq_rr_self_unregister_not_requeued;
          Alcotest.test_case "exclusive skips unregistered ahead" `Quick
            test_wq_exclusive_skips_unregistered_ahead;
        ] );
      ( "socket",
        [
          Alcotest.test_case "fifo" `Quick test_socket_fifo;
          Alcotest.test_case "backlog overflow" `Quick test_socket_backlog_overflow;
          Alcotest.test_case "close drains" `Quick test_socket_close_drains;
          Alcotest.test_case "unique ids" `Quick test_socket_unique_ids;
        ] );
      ( "epoll",
        [
          Alcotest.test_case "conn readiness" `Quick test_epoll_conn_readiness;
          Alcotest.test_case "unknown fd" `Quick test_epoll_unknown_fd_ignored;
          Alcotest.test_case "wakeup callback" `Quick test_epoll_wakeup_callback;
          Alcotest.test_case "dedicated accept" `Quick test_epoll_dedicated_accept;
          Alcotest.test_case "shared scan" `Quick test_epoll_shared_scan;
          Alcotest.test_case "max events" `Quick test_epoll_max_events;
          Alcotest.test_case "close discards" `Quick test_epoll_close_discards;
          Alcotest.test_case "duplicate fd" `Quick test_epoll_duplicate_fd;
          Alcotest.test_case "counts" `Quick test_epoll_counts;
          Alcotest.test_case "readiness allocates nothing" `Quick test_epoll_zero_alloc;
          Alcotest.test_case "shared registration is linear" `Quick
            test_epoll_shared_registration_linear;
        ] );
      ( "ebpf_maps",
        [
          Alcotest.test_case "array map" `Quick test_array_map;
          Alcotest.test_case "sockarray" `Quick test_sockarray;
          Alcotest.test_case "syscall counter" `Quick test_syscall_counter;
        ] );
      ( "ebpf",
        [
          Alcotest.test_case "verifier: unbound var" `Quick test_ebpf_verifier_unbound_var;
          Alcotest.test_case "verifier: budget" `Quick test_ebpf_verifier_budget;
          Alcotest.test_case "verifier: name" `Quick test_ebpf_verifier_name_required;
          Alcotest.test_case "basic outcomes" `Quick test_ebpf_basic_outcomes;
          Alcotest.test_case "select" `Quick test_ebpf_select;
          Alcotest.test_case "arithmetic" `Quick test_ebpf_arith;
          Alcotest.test_case "let scoping" `Quick test_ebpf_let_scoping;
          Alcotest.test_case "conditionals" `Quick test_ebpf_conditionals;
          Alcotest.test_case "helpers" `Quick test_ebpf_helpers;
          Alcotest.test_case "cycles" `Quick test_ebpf_cycles_counted;
        ] );
      ( "reuseport",
        [
          Alcotest.test_case "hash deterministic" `Quick test_reuseport_hash_deterministic;
          Alcotest.test_case "spread" `Quick test_reuseport_spread;
          Alcotest.test_case "unbind" `Quick test_reuseport_unbind;
          Alcotest.test_case "empty group" `Quick test_reuseport_empty;
          Alcotest.test_case "prog overrides" `Quick test_reuseport_prog_overrides;
          Alcotest.test_case "prog fallback" `Quick test_reuseport_prog_fallback;
          Alcotest.test_case "prog drop" `Quick test_reuseport_prog_drop;
          Alcotest.test_case "bind errors" `Quick test_reuseport_bind_errors;
        ] );
    ]
