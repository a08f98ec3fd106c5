(* The zero-allocation dispatch fast path:
   - qcheck differential: bitmap-native scheduler vs the bool-array
     oracle (Oracles.Scheduler_ref)
     (results AND emitted trace events)
   - rank-select reuseport fallback vs the list-based reference pick,
     and its consistency with Bitops.find_nth_set
   - per-outcome Reuseport cycle accounting, VM vs JIT parity
   - Wst.read_into
   - Gc.minor_words-gated allocation checks on the trace-disabled
     scheduler pass, the runtime's pass and bitmap push, the JIT and
     compiled-AST selects and the JIT's splice redirect (quarantined:
     skipped on non-native backends or when a known-zero-alloc
     calibration loop reports allocation, as instrumented runtimes
     make minor_words lie) *)

let schedule = Drive.schedule

let check = Alcotest.check

let ms n = Engine.Sim_time.ms n

(* ------------------------------------------------------------------ *)
(* Scheduler differential: bitmap engine vs Ref                         *)

let gen_sched_case =
  QCheck.Gen.(
    let worker =
      triple (int_bound 300 (* age ms *)) (int_bound 60 (* events *))
        (int_bound 120 (* conns *))
    in
    quad
      (list_size (int_range 1 64) worker)
      (int_bound 5) (* filter-order permutation *)
      (oneofl [ 0.0; 0.25; 0.5; 1.0; 2.5 ])
      (int_range 1 200 (* threshold ms *)))

let orders =
  [
    [ Hermes.Config.By_time; By_conn; By_event ];
    [ Hermes.Config.By_time; By_event; By_conn ];
    [ Hermes.Config.By_conn; By_time; By_event ];
    [ Hermes.Config.By_conn; By_event; By_time ];
    [ Hermes.Config.By_event; By_time; By_conn ];
    [ Hermes.Config.By_event; By_conn; By_time ];
  ]

let build_case (state, perm_ix, theta_ratio, thr_ms) =
  let config =
    {
      Hermes.Config.default with
      filter_order = List.nth orders perm_ix;
      theta_ratio;
      avail_threshold = ms thr_ms;
    }
  in
  let now = ms 1000 in
  let wst = Hermes.Wst.create ~workers:(List.length state) in
  List.iteri
    (fun i (age, events, conns) ->
      Hermes.Wst.set_avail wst i ~now:(Engine.Sim_time.sub now (ms age));
      Hermes.Wst.add_busy wst i events;
      Hermes.Wst.add_conn wst i conns)
    state;
  (config, wst, now)

let result_equal (a : Hermes.Scheduler.result) (b : Hermes.Scheduler.result) =
  Int64.equal a.bitmap b.bitmap
  && a.passed = b.passed && a.total = b.total
  && a.after_time = b.after_time && a.cycles = b.cycles

let prop_bitmap_matches_ref =
  QCheck.Test.make ~name:"bitmap scheduler = Ref (results)" ~count:500
    (QCheck.make gen_sched_case) (fun case ->
      let config, wst, now = build_case case in
      result_equal
        (schedule ~config ~wst ~now)
        (Oracles.Scheduler_ref.schedule ~config ~wst ~now))

(* Golden traces must not move: both engines emit the same
   Sched_filter / Sched_result stream, cutoff floats included. *)
let capture f =
  List.map (fun r -> Trace.render_event r.Trace.event) (Capture.records f)

let prop_bitmap_matches_ref_trace =
  QCheck.Test.make ~name:"bitmap scheduler = Ref (trace events)" ~count:200
    (QCheck.make gen_sched_case) (fun case ->
      let config, wst, now = build_case case in
      let fast =
        capture (fun () ->
            ignore (schedule ~config ~wst ~now))
      in
      let reference =
        capture (fun () ->
            ignore (Oracles.Scheduler_ref.schedule ~config ~wst ~now))
      in
      fast <> [] && fast = reference)

(* Scratch reuse across runs must not leak state between invocations. *)
let test_scratch_reuse () =
  let s = Hermes.Scheduler.make_scratch () in
  let cases =
    [
      ([ (0, 0, 0); (250, 50, 100); (3, 7, 9) ], 0, 0.5, 100);
      ([ (10, 1, 1) ], 1, 0.0, 50);
      (List.init 64 (fun i -> (i * 5, i, i * 2)), 3, 1.0, 120);
      ([ (299, 60, 120); (299, 60, 120) ], 5, 2.5, 10);
    ]
  in
  List.iter
    (fun case ->
      let config, wst, now = build_case case in
      Hermes.Scheduler.run s ~config ~wst ~now;
      let reference = Oracles.Scheduler_ref.schedule ~config ~wst ~now in
      check Alcotest.bool "reused scratch matches Ref" true
        (result_equal (Hermes.Scheduler.result s) reference))
    cases

(* ------------------------------------------------------------------ *)
(* Wst.read_into                                                        *)

let test_read_into_fills_the_table () =
  let wst = Hermes.Wst.create ~workers:5 in
  for w = 0 to 4 do
    Hermes.Wst.set_avail wst w ~now:(ms (w * 7));
    Hermes.Wst.add_busy wst w (w * 3);
    Hermes.Wst.add_conn wst w (w + 11)
  done;
  let times = Array.make 64 (-1) and events = Array.make 64 (-1) in
  let conns = Array.make 64 (-1) in
  let n = Hermes.Wst.read_into wst ~times ~events ~conns in
  check Alcotest.int "count" 5 n;
  check Alcotest.(array int) "times" (Array.init 5 (fun w -> ms (w * 7))) (Array.sub times 0 n);
  check Alcotest.(array int) "events" (Array.init 5 (fun w -> w * 3)) (Array.sub events 0 n);
  check Alcotest.(array int) "conns" (Array.init 5 (fun w -> w + 11)) (Array.sub conns 0 n);
  check Alcotest.int "slack untouched" (-1) times.(5);
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Wst.read_into: buffers smaller than the table")
    (fun () ->
      ignore
        (Hermes.Wst.read_into wst ~times:(Array.make 4 0) ~events ~conns))

(* ------------------------------------------------------------------ *)
(* Rank-select reuseport fallback                                       *)

let fresh_group slots =
  let g = Kernel.Reuseport.create ~port:80 ~slots in
  let socks = Array.init slots (fun _ -> Kernel.Socket.create_listen ~port:80 ~backlog:4 ()) in
  (g, socks)

(* Reference semantics: the pre-rank-select implementation built the
   live list per packet and picked List.nth. *)
let reference_pick g ~flow_hash =
  let live = ref [] in
  for slot = Kernel.Reuseport.slots g - 1 downto 0 do
    match Kernel.Reuseport.member g ~slot with
    | Some s -> live := (slot, s) :: !live
    | None -> ()
  done;
  match !live with
  | [] -> None
  | live ->
    let n = List.length live in
    Some (List.nth live (Kernel.Bitops.reciprocal_scale ~hash:flow_hash ~n))

let prop_fallback_matches_reference =
  QCheck.Test.make ~name:"rank-select fallback = list-based reference"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 1 64)
           (list_size (int_range 0 80) (int_bound 63))
           (list_size (int_range 1 20) (int_bound 0xFFFFFF))))
    (fun (slots, binds, hashes) ->
      let g, socks = fresh_group slots in
      (* bind a random subset (duplicates / out-of-range ignored) *)
      List.iter
        (fun slot ->
          if slot < slots && Kernel.Reuseport.member g ~slot = None then
            Kernel.Reuseport.bind g ~slot ~socket:socks.(slot))
        binds;
      List.for_all
        (fun flow_hash ->
          match
            (Kernel.Reuseport.select g ~flow_hash, reference_pick g ~flow_hash)
          with
          | None, None -> true
          | Some got, Some (slot, want) ->
            Kernel.Socket.id got = Kernel.Socket.id want
            (* and the winning slot is exactly the bitmap's rank-select *)
            && Kernel.Reuseport.slot_of_socket g got = slot
            && slot
               = Kernel.Bitops.find_nth_set
                   (Kernel.Reuseport.live_bitmap g)
                   (1
                   + Kernel.Bitops.reciprocal_scale ~hash:flow_hash
                       ~n:(Kernel.Bitops.popcount64 (Kernel.Reuseport.live_bitmap g)))
          | _ -> false)
        hashes)

let test_bind_unbind_bitmap () =
  let g, socks = fresh_group 8 in
  List.iter (fun slot -> Kernel.Reuseport.bind g ~slot ~socket:socks.(slot)) [ 1; 3; 6 ];
  check Alcotest.int64 "bitmap" (Kernel.Bitops.bits_of_list [ 1; 3; 6 ])
    (Kernel.Reuseport.live_bitmap g);
  check Alcotest.int "slot_of_socket" 3
    (Kernel.Reuseport.slot_of_socket g socks.(3));
  Kernel.Reuseport.unbind g ~slot:3;
  check Alcotest.int64 "bitmap after unbind" (Kernel.Bitops.bits_of_list [ 1; 6 ])
    (Kernel.Reuseport.live_bitmap g);
  check Alcotest.int "unbound socket unknown" (-1)
    (Kernel.Reuseport.slot_of_socket g socks.(3));
  check Alcotest.int "live count" 2 (Kernel.Bitops.popcount64 (Kernel.Reuseport.live_bitmap g))

(* ------------------------------------------------------------------ *)
(* Per-outcome cycle accounting, one outcome path for both engines      *)

(* flow_hash 1 -> select slot 0 (10 cycles: 6 insns + 4 helper extra),
   flow_hash 2 -> drop (5), anything else -> fallback (5). *)
let mixed_prog sa =
  Kernel.Ebpf_vm.
    [|
      Ld_flow_hash R3;
      Jmp_imm (Jeq, R3, 1L, 3);
      Jmp_imm (Jeq, R3, 2L, 6);
      Mov_imm (R0, 0L);
      Exit;
      Mov_imm (R1, 0L);
      Call (Sk_select sa);
      Mov_imm (R0, 1L);
      Exit;
      Mov_imm (R0, 2L);
      Exit;
    |]

(* The same verdicts as an expression program: select 7 cycles (the
   compare 3, the select 4), drop 7, fallback 7. *)
let mixed_ast sa =
  let open Kernel.Ebpf in
  verify_exn
    {
      name = "mixed";
      body =
        If
          ( Eq, Flow_hash, Const 1L, Select (sa, Const 0L),
            If (Eq, Flow_hash, Const 2L, Drop, Fallback) );
    }

let run_mixed attach =
  let g, socks = fresh_group 4 in
  for slot = 0 to 3 do
    Kernel.Reuseport.bind g ~slot ~socket:socks.(slot)
  done;
  let sa = Kernel.Ebpf_maps.Sockarray.create ~name:"td_socks" ~size:4 in
  for i = 0 to 3 do
    Kernel.Ebpf_maps.Sockarray.set sa i socks.(i)
  done;
  attach g sa;
  List.iter
    (fun flow_hash -> ignore (Kernel.Reuseport.select g ~flow_hash))
    [ 1; 2; 3; 1 ];
  Kernel.Reuseport.stats g

let attach_jit g sa =
  match Kernel.Reuseport.attach g ~name:"mixed" (mixed_prog sa) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)

let check_mixed_stats label ~select ~drop ~fallback
    (st : Kernel.Reuseport.stats) =
  check Alcotest.int (label ^ " by prog") 2 st.selected_by_prog;
  check Alcotest.int (label ^ " by hash") 1 st.selected_by_hash;
  check Alcotest.int (label ^ " dropped") 1 st.dropped;
  check Alcotest.int (label ^ " select cycles") (2 * select) st.prog_cycles_select;
  check Alcotest.int (label ^ " drop cycles") drop st.prog_cycles_drop;
  check Alcotest.int (label ^ " fallback cycles") fallback st.prog_cycles_fallback;
  check Alcotest.int (label ^ " total = sum of outcomes")
    (st.prog_cycles_select + st.prog_cycles_fallback + st.prog_cycles_drop)
    st.prog_cycles

let test_per_outcome_cycles_ast () =
  check_mixed_stats "ast" ~select:7 ~drop:7 ~fallback:7
    (run_mixed (fun g sa -> Kernel.Reuseport.attach_ebpf g ~name:"mixed" (mixed_ast sa)))

let test_per_outcome_cycles_jit () =
  check_mixed_stats "jit" ~select:10 ~drop:5 ~fallback:5 (run_mixed attach_jit)

(* ------------------------------------------------------------------ *)
(* The kernel_jit device path                                           *)

(* A compact fault plan inside the run's 200 ms: the program faults,
   then the bitmap pushes lag while a worker crashes, is isolated and
   recovers, another stalls its WST writes, a third hangs and a
   fourth's backlog overflows. *)
let compact_plan =
  let ms = Engine.Sim_time.ms in
  Faults.Plan.
    [
      { at = ms 20; action = Ebpf_fail { duration = ms 15 } };
      { at = ms 40; action = Map_sync_delay { delay = ms 5; duration = ms 30 } };
      { at = ms 50; action = Crash { worker = 3 } };
      { at = ms 55; action = Isolate { worker = 3 } };
      { at = ms 95; action = Recover { worker = 3 } };
      { at = ms 60; action = Wst_stall { worker = 2; duration = ms 40 } };
      { at = ms 60; action = Hang { worker = 1; duration = ms 40 } };
      { at = ms 70; action = Accept_overflow { worker = 0; duration = ms 30 } };
    ]

(* One seeded Hermes device under an open-loop Case 1 workload and the
   compact fault plan, with its trace captured.  Returns the rendered
   records (the attach-time verifier verdicts dropped, each program
   run's cycles zeroed: the AST evaluator and the bytecode JIT charge
   different cycle models), the device, and how many program runs
   selected and fell back. *)
let hermes_device_run config =
  let records = ref [] in
  let sink = { Trace.write = (fun r -> records := r :: !records); close = ignore } in
  let device =
    Trace.with_sink sink (fun () ->
        let sim = Engine.Sim.create () in
        let rng = Engine.Rng.create 2026 in
        let tenants = Netsim.Tenant.population ~n:8 ~base_dport:20000 in
        let device =
          Lb.Device.create ~sim ~rng:(Engine.Rng.split rng)
            ~mode:(Lb.Device.Hermes config) ~workers:8 ~tenants ()
        in
        Lb.Device.start device;
        Faults.Inject.arm ~device ~plan:compact_plan;
        let profile =
          Workload.Profile.scale_rate
            (Workload.Cases.profile Workload.Cases.Case1 ~workers:8)
            2.0
        in
        let driver = Workload.Driver.start ~device ~profile ~rng () in
        Engine.Sim.run_until sim ~limit:(ms 150);
        Workload.Driver.stop driver;
        Engine.Sim.run_until sim ~limit:(ms 200);
        device)
  in
  let selects = ref 0 and fallbacks = ref 0 and injected = ref 0 in
  let rendered =
    List.rev !records
    |> List.filter_map (fun (r : Trace.record) ->
           match r.event with
           | Trace.Verifier_verdict _ -> None
           | Trace.Fault_inject _ ->
             incr injected;
             Some (Trace.render r)
           | Trace.Prog_run p ->
             (match p.outcome with
             | Trace.Select -> incr selects
             | Trace.Fallback -> incr fallbacks
             | Trace.Drop | Trace.Redirect -> ());
             Some (Trace.render { r with event = Trace.Prog_run { p with cycles = 0 } })
           | _ -> Some (Trace.render r))
  in
  (rendered, device, !selects, !fallbacks, !injected)

let test_kernel_jit_device_matches_ast () =
  let ast, ast_dev, selects, fallbacks, injected =
    hermes_device_run Hermes.Config.default
  in
  let jit, jit_dev, _, _, _ =
    hermes_device_run { Hermes.Config.default with kernel_jit = true }
  in
  check Alcotest.int "every fault fired" (List.length compact_plan) injected;
  check Alcotest.bool "programs selected" true (selects > 100);
  check Alcotest.bool "programs fell back" true (fallbacks > 0);
  let rec first_diff i a b =
    match (a, b) with
    | [], [] -> ()
    | x :: a, y :: b ->
      if x <> y then Alcotest.failf "record %d differs:\n ast %s\n jit %s" i x y
      else first_diff (i + 1) a b
    | _ ->
      Alcotest.failf "trace lengths differ: ast %d, jit %d" (List.length ast)
        (List.length jit)
  in
  first_diff 0 ast jit;
  check Alcotest.int "completed" (Lb.Device.completed ast_dev)
    (Lb.Device.completed jit_dev);
  check Alcotest.int "dropped" (Lb.Device.dropped ast_dev) (Lb.Device.dropped jit_dev);
  let hist d =
    let h = Lb.Device.latency_hist d in
    Stats.Histogram.mean h
    :: List.init 101 (fun p -> Stats.Histogram.percentile h (float_of_int p))
  in
  check Alcotest.(list (float 0.)) "latency histogram" (hist ast_dev) (hist jit_dev)

(* ------------------------------------------------------------------ *)
(* Allocation gates (quarantined)                                       *)

let test_scheduler_pass_zero_alloc () =
  let case = (List.init 64 (fun i -> (i * 4, i, i * 2)), 0, 0.5, 100) in
  let config, wst, now = build_case case in
  let s = Hermes.Scheduler.make_scratch () in
  Hermes.Scheduler.run s ~config ~wst ~now;
  (* warm *)
  Alloc_gate.check "scheduler pass" (fun _ -> Hermes.Scheduler.run s ~config ~wst ~now)

(* The pass as a worker runs it: two groups of 4, the bitmap pushed
   through the map-update syscall into the map's unboxed cell. *)
let test_runtime_pass_zero_alloc () =
  let rt =
    Hermes.Runtime.create ~group_size:4 ~config:Hermes.Config.default ~workers:8 ()
  in
  for w = 0 to 7 do
    let hooks = Hermes.Runtime.hooks rt w in
    Hermes.Metrics.avail_update hooks ~now:(ms (90 + w));
    Hermes.Metrics.conn_count hooks (w * 3);
    Hermes.Metrics.busy_count hooks (w land 3)
  done;
  ignore (Hermes.Runtime.schedule_and_sync rt ~worker:0 ~now:(ms 100));
  (* warm *)
  Alloc_gate.check "runtime pass" (fun i ->
      ignore (Hermes.Runtime.schedule_and_sync rt ~worker:(i land 7) ~now:(ms 100 + i)))

(* The default dispatch engine: the compiled expression program,
   rotating through select, drop and the hash fallback, with every
   operator of the language on the select path. *)
let every_op_ast sa =
  let open Kernel.Ebpf in
  let m = Kernel.Ebpf_maps.Array_map.create ~name:"td_ast_map" ~size:1 in
  Kernel.Ebpf_maps.Array_map.kernel_update m 0 0xF0F0L;
  let low2 = Band (Flow_hash, Const 3L) in
  let v =
    Bxor
      ( Bor (Band (Flow_hash, Const 0xFFL), Shl (Const 1L, Const 3L)),
        Shr (Sub (Dst_port, Const 1L), Const 1L) )
  in
  let w =
    Add
      ( Popcount (Lookup (m, Const 0L)),
        Find_nth_set (Const 0b1010L, Add (Reciprocal_scale (Flow_hash, Const 2L), Const 1L)) )
  in
  verify_exn
    {
      name = "every_op";
      body =
        If
          ( Eq, low2, Const 2L, Drop,
            If
              ( Eq, low2, Const 3L, Fallback,
                Let_ret ("v", Add (v, w), Select (sa, Mod (Var "v", Const 4L))) ) );
    }

let test_ast_select_zero_alloc () =
  let g, socks = fresh_group 4 in
  for slot = 0 to 3 do
    Kernel.Reuseport.bind g ~slot ~socket:socks.(slot)
  done;
  let sa = Kernel.Ebpf_maps.Sockarray.create ~name:"td_ast_socks" ~size:4 in
  for i = 0 to 3 do
    Kernel.Ebpf_maps.Sockarray.set sa i socks.(i)
  done;
  Kernel.Reuseport.attach_ebpf g ~name:"every_op" (every_op_ast sa);
  List.iter
    (fun flow_hash -> ignore (Kernel.Reuseport.select g ~flow_hash))
    [ 0; 1; 2; 3 ];
  let st = Kernel.Reuseport.stats g in
  check Alcotest.(list int) "select, drop, fallback" [ 2; 1; 1 ]
    [ st.selected_by_prog; st.dropped; st.selected_by_hash ];
  ignore (Kernel.Reuseport.select g ~flow_hash:1);
  (* warm *)
  Alloc_gate.check "AST select" (fun i ->
      ignore (Kernel.Reuseport.select g ~flow_hash:(i land 3)))

let test_jit_select_zero_alloc () =
  let g, socks = fresh_group 4 in
  for slot = 0 to 3 do
    Kernel.Reuseport.bind g ~slot ~socket:socks.(slot)
  done;
  let sa = Kernel.Ebpf_maps.Sockarray.create ~name:"td_alloc_socks" ~size:4 in
  for i = 0 to 3 do
    Kernel.Ebpf_maps.Sockarray.set sa i socks.(i)
  done;
  (match Kernel.Reuseport.attach g ~name:"alloc" (mixed_prog sa) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e));
  ignore (Kernel.Reuseport.select g ~flow_hash:1);
  (* warm; rotate through select / drop / fallback outcomes *)
  Alloc_gate.check "JIT select" (fun i ->
      ignore (Kernel.Reuseport.select g ~flow_hash:(i land 3)))

(* The splice redirect program as Splice compiles it, over live and
   empty sockmap slots with a 256-byte copy: a hit runs the redirect
   and copy helpers, a miss the fallback exit. *)
let test_jit_redirect_zero_alloc () =
  let m = Kernel.Ebpf_maps.Sockmap.create ~name:"td_splice" ~size:8 in
  for k = 0 to 7 do
    if k land 1 = 0 then Kernel.Ebpf_maps.Sockmap.set m k ~conn:(100 + k) ~target:(k land 3)
  done;
  let prog =
    match
      Kernel.Verifier.compile_and_verify
        (Hermes.Dispatch.splice_prog ~m_splice:m ~copy:256 ())
    with
    | Ok v -> Kernel.Ebpf_jit.compile v
    | Error e -> Alcotest.fail (Kernel.Verifier.error_to_string e)
  in
  check Alcotest.int "live slot redirects" 3 (Kernel.Ebpf_code.exec prog ~flow_hash:2 ~dst_port:80);
  check Alcotest.int "copy" 256 (Kernel.Ebpf_code.copy_len prog);
  check Alcotest.int "empty slot falls back" 0
    (Kernel.Ebpf_code.exec prog ~flow_hash:3 ~dst_port:80);
  Alloc_gate.check "JIT redirect" (fun i ->
      ignore (Kernel.Ebpf_code.exec prog ~flow_hash:(i land 7) ~dst_port:80))

let () =
  Alcotest.run "dispatch"
    [
      ( "scheduler-differential",
        [
          QCheck_alcotest.to_alcotest prop_bitmap_matches_ref;
          QCheck_alcotest.to_alcotest prop_bitmap_matches_ref_trace;
          Alcotest.test_case "scratch reuse" `Quick test_scratch_reuse;
        ] );
      ( "wst",
        [
          Alcotest.test_case "read_into fills the table" `Quick
            test_read_into_fills_the_table;
        ] );
      ( "rank-select",
        [
          QCheck_alcotest.to_alcotest prop_fallback_matches_reference;
          Alcotest.test_case "bind/unbind bitmap" `Quick test_bind_unbind_bitmap;
        ] );
      ( "cycle-accounting",
        [
          Alcotest.test_case "per-outcome (ast)" `Quick
            test_per_outcome_cycles_ast;
          Alcotest.test_case "per-outcome (jit)" `Quick
            test_per_outcome_cycles_jit;
        ] );
      ( "device-engines",
        [
          Alcotest.test_case "kernel_jit = ast (trace, counts, latency)" `Quick
            test_kernel_jit_device_matches_ast;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "scheduler pass" `Quick
            test_scheduler_pass_zero_alloc;
          Alcotest.test_case "jit select" `Quick test_jit_select_zero_alloc;
          Alcotest.test_case "JIT redirect" `Quick test_jit_redirect_zero_alloc;
          Alcotest.test_case "AST select" `Quick test_ast_select_zero_alloc;
          Alcotest.test_case "runtime pass" `Quick test_runtime_pass_zero_alloc;
        ] );
    ]
