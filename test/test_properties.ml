(* Cross-cutting property tests: a model-based check of the epoll
   readiness bookkeeping, scheduler invariants over random WSTs, and
   waitqueue policy laws. *)

let schedule = Drive.schedule

let ms = Engine.Sim_time.ms

(* ------------------------------------------------------------------ *)
(* Epoll vs a reference model                                           *)

type op =
  | Add of int
  | Remove of int
  | Notify of int * int
  | Poll of int (* max_events *)

let gen_op =
  QCheck.Gen.(
    oneof
      [
        map (fun fd -> Add (fd mod 8)) (int_bound 7);
        map (fun fd -> Remove (fd mod 8)) (int_bound 7);
        map2 (fun fd n -> Notify (fd mod 8, 1 + (n mod 5))) (int_bound 7) (int_bound 4);
        map (fun n -> Poll (1 + (n mod 8))) (int_bound 7);
      ])

(* The model: registered fds and their undelivered units.  Every unit
   notified on a registered fd is either delivered by some poll or
   discarded by its removal; polls never deliver more events than
   max_events nor units that were not notified. *)
let prop_epoll_model =
  QCheck.Test.make ~name:"epoll readiness bookkeeping vs model" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 60) gen_op))
    (fun ops ->
      let ep = Kernel.Epoll.create ~worker_id:0 in
      let registered = Hashtbl.create 8 in
      let pending = Hashtbl.create 8 in
      let ok = ref true in
      let model_pending fd = Option.value ~default:0 (Hashtbl.find_opt pending fd) in
      List.iter
        (fun op ->
          match op with
          | Add fd ->
            if not (Hashtbl.mem registered fd) then begin
              Kernel.Epoll.add_conn ep ~fd;
              Hashtbl.replace registered fd ()
            end
          | Remove fd ->
            if Hashtbl.mem registered fd then begin
              Kernel.Epoll.remove_conn ep ~fd;
              Hashtbl.remove registered fd;
              Hashtbl.remove pending fd
            end
          | Notify (fd, units) ->
            Kernel.Epoll.notify_readable ep ~fd ~units;
            if Hashtbl.mem registered fd then
              Hashtbl.replace pending fd (model_pending fd + units)
          | Poll max_events ->
            let n = Kernel.Epoll.wait ep ~max_events in
            if n > max_events then ok := false;
            for i = 0 to n - 1 do
              let fd = Kernel.Epoll.event_fd ep i in
              (* each delivery must match the model's pending units *)
              if model_pending fd <> Kernel.Epoll.event_units ep i then ok := false;
              Hashtbl.remove pending fd
            done)
        ops;
      (* total undelivered units agree at the end *)
      let model_total = Hashtbl.fold (fun _ u acc -> acc + u) pending 0 in
      !ok && model_total = Kernel.Epoll.pending_units ep)

(* ------------------------------------------------------------------ *)
(* Scheduler invariants                                                 *)

let gen_wst_state =
  QCheck.Gen.(
    let worker =
      triple (int_bound 200 (* age ms *)) (int_bound 50 (* events *))
        (int_bound 100 (* conns *))
    in
    list_size (int_range 1 16) worker)

let build_wst state now =
  let n = List.length state in
  let wst = Hermes.Wst.create ~workers:n in
  List.iteri
    (fun i (age, events, conns) ->
      Hermes.Wst.set_avail wst i ~now:(Engine.Sim_time.sub now (ms age));
      Hermes.Wst.add_busy wst i events;
      Hermes.Wst.add_conn wst i conns)
    state;
  wst

let prop_scheduler_bitmap_consistent =
  QCheck.Test.make ~name:"scheduler: passed = popcount(bitmap) within range"
    ~count:300 (QCheck.make gen_wst_state) (fun state ->
      let now = ms 1000 in
      let wst = build_wst state now in
      let r = schedule ~config:Hermes.Config.default ~wst ~now in
      Kernel.Bitops.popcount64 r.Hermes.Scheduler.bitmap = r.Hermes.Scheduler.passed
      && r.Hermes.Scheduler.passed <= r.Hermes.Scheduler.total
      && List.for_all
           (fun b -> b < List.length state)
           (Bitmap.to_list r.Hermes.Scheduler.bitmap))

let prop_scheduler_excludes_hung =
  QCheck.Test.make ~name:"scheduler: stale workers never selected" ~count:300
    (QCheck.make gen_wst_state) (fun state ->
      let now = ms 1000 in
      let wst = build_wst state now in
      let threshold = Hermes.Config.default.Hermes.Config.avail_threshold in
      let r = schedule ~config:Hermes.Config.default ~wst ~now in
      let times, _, _ = Oracles.Scheduler_ref.read_all wst in
      List.for_all
        (fun b ->
          let age = Engine.Sim_time.sub now times.(b) in
          age < threshold)
        (Bitmap.to_list r.Hermes.Scheduler.bitmap))

let prop_scheduler_deterministic =
  QCheck.Test.make ~name:"scheduler: deterministic" ~count:100
    (QCheck.make gen_wst_state) (fun state ->
      let now = ms 1000 in
      let wst = build_wst state now in
      let r1 = schedule ~config:Hermes.Config.default ~wst ~now in
      let r2 = schedule ~config:Hermes.Config.default ~wst ~now in
      Int64.equal r1.Hermes.Scheduler.bitmap r2.Hermes.Scheduler.bitmap)

(* The coarse filter can never empty the bitmap while at least one
   worker is fresh: FilterCount's cutoff is avg + max(1, theta), and
   the minimum-valued live worker is always strictly below it. *)
let prop_scheduler_bitmap_never_empty_with_fresh_worker =
  QCheck.Test.make ~name:"scheduler: >=1 fresh worker => non-empty bitmap"
    ~count:300 (QCheck.make gen_wst_state) (fun state ->
      let now = ms 1000 in
      let wst = build_wst state now in
      let cfg = Hermes.Config.default in
      let threshold = cfg.Hermes.Config.avail_threshold in
      (* build_wst stamps worker avail at [now - age], so fresh iff the
         age is under FilterTime's staleness threshold *)
      let fresh = List.exists (fun (age, _, _) -> ms age < threshold) state in
      let r = schedule ~config:cfg ~wst ~now in
      (not fresh) || r.Hermes.Scheduler.passed > 0)

(* The theta floor (max 1.0 slack) must keep an all-idle group fully
   selected: with every counter at zero, avg = 0 and the cutoff is 1,
   so nobody is filtered and the hash fallback is never triggered. *)
let prop_scheduler_all_idle_fully_selected =
  QCheck.Test.make ~name:"scheduler: all-idle group fully selected" ~count:200
    (QCheck.make QCheck.Gen.(int_range 1 64)) (fun workers ->
      let now = ms 1000 in
      let wst = Hermes.Wst.create ~workers in
      for w = 0 to workers - 1 do
        Hermes.Wst.set_avail wst w ~now
      done;
      let r = schedule ~config:Hermes.Config.default ~wst ~now in
      r.Hermes.Scheduler.passed = workers
      && Kernel.Bitops.popcount64 r.Hermes.Scheduler.bitmap = workers)

(* passed = popcount(bitmap) under every filter-order permutation, not
   just the paper's time->conn->event default. *)
let prop_scheduler_passed_is_popcount_all_orders =
  QCheck.Test.make ~name:"scheduler: passed = popcount under any filter order"
    ~count:200
    (QCheck.make
       QCheck.Gen.(pair gen_wst_state (int_bound 5)))
    (fun (state, perm_ix) ->
      let orders =
        [
          [ Hermes.Config.By_time; By_conn; By_event ];
          [ Hermes.Config.By_time; By_event; By_conn ];
          [ Hermes.Config.By_conn; By_time; By_event ];
          [ Hermes.Config.By_conn; By_event; By_time ];
          [ Hermes.Config.By_event; By_time; By_conn ];
          [ Hermes.Config.By_event; By_conn; By_time ];
        ]
      in
      let config =
        { Hermes.Config.default with filter_order = List.nth orders perm_ix }
      in
      let now = ms 1000 in
      let wst = build_wst state now in
      let r = schedule ~config ~wst ~now in
      Kernel.Bitops.popcount64 r.Hermes.Scheduler.bitmap = r.Hermes.Scheduler.passed)

(* A fresh, idle worker among loaded ones must always be selected: it
   is below every average-based cutoff. *)
let prop_scheduler_idle_always_in =
  QCheck.Test.make ~name:"scheduler: fresh idle worker always selected"
    ~count:200 (QCheck.make gen_wst_state) (fun state ->
      let now = ms 1000 in
      let state = (0, 0, 0) :: state in
      let wst = build_wst state now in
      let r = schedule ~config:Hermes.Config.default ~wst ~now in
      Bitmap.is_set r.Hermes.Scheduler.bitmap 0)

(* ------------------------------------------------------------------ *)
(* Waitqueue policy laws                                                *)

let gen_availability = QCheck.Gen.(list_size (int_range 1 10) bool)

let prop_exclusive_wakes_at_most_one =
  QCheck.Test.make ~name:"exclusive policies wake at most one" ~count:200
    (QCheck.make
       QCheck.Gen.(pair (oneofl [ 0; 1; 2 ]) gen_availability))
    (fun (mode_ix, avail) ->
      let mode =
        match mode_ix with
        | 0 -> Kernel.Waitqueue.Lifo_exclusive
        | 1 -> Kernel.Waitqueue.Roundrobin_exclusive
        | _ -> Kernel.Waitqueue.Fifo_exclusive
      in
      let wq = Kernel.Waitqueue.create mode in
      List.iteri
        (fun id can -> Kernel.Waitqueue.register wq ~id ~try_wake:(fun () -> can))
        avail;
      let woken = Kernel.Waitqueue.wake wq in
      let expected = if List.exists (fun c -> c) avail then 1 else 0 in
      woken = expected)

let prop_wake_all_wakes_all_available =
  QCheck.Test.make ~name:"wake_all wakes every available waiter" ~count:200
    (QCheck.make gen_availability) (fun avail ->
      let wq = Kernel.Waitqueue.create Kernel.Waitqueue.Wake_all in
      List.iteri
        (fun id can -> Kernel.Waitqueue.register wq ~id ~try_wake:(fun () -> can))
        avail;
      Kernel.Waitqueue.wake wq = List.length (List.filter (fun c -> c) avail))

(* ------------------------------------------------------------------ *)
(* Dispatch program vs a direct OCaml rendering of Algo 2               *)

let reference_algo2 ~bitmap ~flow_hash ~min_selected =
  let n = Kernel.Bitops.popcount64 bitmap in
  if n >= min_selected then
    let nth = Kernel.Bitops.reciprocal_scale ~hash:flow_hash ~n + 1 in
    Some (Kernel.Bitops.find_nth_set bitmap nth)
  else None

let prop_dispatch_matches_reference =
  QCheck.Test.make ~name:"Algo 2 program = reference implementation" ~count:300
    (QCheck.make QCheck.Gen.(pair (int_bound 0xFFFFFF) (int_bound 0xFFFFFFF)))
    (fun (bits, hash_seed) ->
      let bitmap = Int64.of_int bits (* up to 24 workers *) in
      let flow_hash = hash_seed * 2654435761 land 0xFFFFFFFF in
      let m_sel = Kernel.Ebpf_maps.Array_map.create ~name:"m" ~size:1 in
      Kernel.Ebpf_maps.Array_map.kernel_update m_sel 0 bitmap;
      let m_socket = Kernel.Ebpf_maps.Sockarray.create ~name:"s" ~size:24 in
      let socks =
        Array.init 24 (fun i ->
            let s = Kernel.Socket.create_listen ~port:80 ~backlog:1 () in
            Kernel.Ebpf_maps.Sockarray.set m_socket i s;
            s)
      in
      let prog =
        Kernel.Ebpf.verify_exn
          (Hermes.Dispatch.single_group ~m_sel ~m_socket ~min_selected:2)
      in
      let got = fst (Kernel.Ebpf.run prog { Kernel.Ebpf.flow_hash; dst_port = 1 }) in
      match (reference_algo2 ~bitmap ~flow_hash ~min_selected:2, got) with
      | None, Kernel.Ebpf.Fell_back -> true
      | Some slot, Kernel.Ebpf.Selected sock ->
        Kernel.Socket.id socks.(slot) = Kernel.Socket.id sock
      | _ -> false)

let () =
  Alcotest.run "properties"
    [
      ( "epoll",
        [ QCheck_alcotest.to_alcotest prop_epoll_model ] );
      ( "scheduler",
        [
          QCheck_alcotest.to_alcotest prop_scheduler_bitmap_consistent;
          QCheck_alcotest.to_alcotest prop_scheduler_excludes_hung;
          QCheck_alcotest.to_alcotest prop_scheduler_deterministic;
          QCheck_alcotest.to_alcotest prop_scheduler_idle_always_in;
          QCheck_alcotest.to_alcotest
            prop_scheduler_bitmap_never_empty_with_fresh_worker;
          QCheck_alcotest.to_alcotest prop_scheduler_all_idle_fully_selected;
          QCheck_alcotest.to_alcotest prop_scheduler_passed_is_popcount_all_orders;
        ] );
      ( "waitqueue",
        [
          QCheck_alcotest.to_alcotest prop_exclusive_wakes_at_most_one;
          QCheck_alcotest.to_alcotest prop_wake_all_wakes_all_available;
        ] );
      ( "dispatch",
        [ QCheck_alcotest.to_alcotest prop_dispatch_matches_reference ] );
    ]
