(* Canonical golden-trace scenarios, shared between the golden_gen
   executable (which diffs their text rendering against committed
   .expected files) and test_trace (which replays them under the JSONL
   and binary sinks to prove the two formats carry identical event
   streams).

   Each scenario builds a small canonical device and drives a fixed
   workload under a fixed RNG seed, so the recorded trace is
   bit-for-bit deterministic.

   The scenarios pin the paper's *ordering* claims per decision, not in
   aggregate:

   - [lifo_herd]      epoll-exclusive wakeups always pick the wait
                      queue's head — the LIFO concentration of section 2.2
   - [rr_rotation]    the rr patch moves the woken worker to the tail,
                      so wakeups rotate
   - [hash_skew]      stateless reuseport hashing lands colliding flows
                      on the same worker regardless of its load
   - [filter_cascade] Hermes' Algo 1 cascade: per-stage survivor masks,
                      the pushed bitmap, and Algo 2 picking among the
                      survivors (the Fig. 9 running example)
   - [splice_handoff] the in-kernel splice fast path: sockmap attach on
                      accept, redirect per payload chunk, teardown on
                      close — plus the reason=isolate sweep when a
                      worker is pulled
   - [fault_window]   a fault plan replayed through the device stack:
                      an eBPF program fault (Algo 2 degrades to the
                      hash fallback, then re-engages), a hang, and
                      health probes that time out behind it
   - [fleet_drain]    a two-device fleet's merged trace across a fault
                      plan and a rolling replacement that starts while
                      one connection is still on its way to a member *)

let ms = Engine.Sim_time.ms
let us = Engine.Sim_time.us

let make_device mode ~workers ~seed =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create seed in
  let tenants = Netsim.Tenant.population ~n:1 ~base_dport:20000 in
  let device = Lb.Device.create ~sim ~rng ~mode ~workers ~tenants () in
  (device, sim)

(* One-request-then-close client: established -> send -> done -> close. *)
let client_events device ~cost =
  {
    Lb.Device.established =
      (fun conn ->
        let req =
          Lb.Request.make ~id:(Lb.Device.fresh_id device) ~op:Lb.Request.Plain_proxy
            ~size:200 ~cost ~tenant_id:conn.Lb.Conn.tenant_id
        in
        ignore (Lb.Device.send device conn req));
    request_done = (fun conn _ -> Lb.Device.close_conn device conn);
    closed = (fun _ -> ());
    reset = (fun _ -> ());
    dispatch_failed = (fun () -> ());
  }

(* [costs] cycles per-connection request costs; connects are spaced so
   workers re-block between arrivals unless a cost keeps one busy. *)
let drive device sim ~conns ~spacing ~costs ~limit =
  for i = 0 to conns - 1 do
    let cost = List.nth costs (i mod List.length costs) in
    ignore
      (Engine.Sim.schedule sim
         ~at:(Engine.Sim_time.add spacing (spacing * i))
         (fun () ->
           Lb.Device.connect device ~tenant:0 ~events:(client_events device ~cost)))
  done;
  Engine.Sim.run_until sim ~limit

type t = { name : string; header : string; run : unit -> unit }

let lifo_herd () =
  let device, sim = make_device Lb.Device.Exclusive ~workers:4 ~seed:7 in
  Lb.Device.start device;
  drive device sim ~conns:6 ~spacing:(ms 2) ~costs:[ us 100 ] ~limit:(ms 16)

let rr_rotation () =
  let device, sim = make_device Lb.Device.Epoll_rr ~workers:4 ~seed:7 in
  Lb.Device.start device;
  drive device sim ~conns:8 ~spacing:(ms 2) ~costs:[ us 100 ] ~limit:(ms 20)

let hash_skew () =
  let device, sim = make_device Lb.Device.Reuseport ~workers:4 ~seed:42 in
  Lb.Device.start device;
  drive device sim ~conns:10 ~spacing:(ms 1) ~costs:[ us 100 ] ~limit:(ms 14)

let filter_cascade () =
  let device, sim =
    make_device (Lb.Device.Hermes Hermes.Config.default) ~workers:4 ~seed:42
  in
  Lb.Device.start device;
  (* One long request hogs a worker, so FilterCount's theta cutoff has
     real work to do while the others stay selectable. *)
  drive device sim ~conns:8 ~spacing:(ms 1)
    ~costs:[ us 100; ms 6; us 100; us 100 ]
    ~limit:(ms 12)

(* Splice mode: every connection sends two 8 KiB chunks so the trace
   shows the full sockmap lifecycle — attach on accept, one redirect
   per chunk, teardown reason=close.  The second chunk comes after a
   5 ms idle gap, so conns hashed to worker 1 are still attached when
   the isolate at ms 4 sweeps its entries with reason=isolate (their
   late chunk then falls back to the userspace path). *)
let splice_handoff () =
  let device, sim = make_device Lb.Device.Splice ~workers:4 ~seed:7 in
  Lb.Device.start device;
  let send conn =
    let req =
      Lb.Request.make ~id:(Lb.Device.fresh_id device) ~op:Lb.Request.Plain_proxy
        ~size:8192 ~cost:(us 30) ~tenant_id:conn.Lb.Conn.tenant_id
    in
    ignore (Lb.Device.send device conn req)
  in
  let two_chunk_events () =
    let sent = ref 0 in
    {
      Lb.Device.established =
        (fun conn ->
          incr sent;
          send conn);
      request_done =
        (fun conn _ ->
          if !sent < 2 then begin
            incr sent;
            ignore
              (Engine.Sim.schedule sim
                 ~at:(Engine.Sim_time.add (Engine.Sim.now sim) (ms 5))
                 (fun () ->
                   if conn.Lb.Conn.state = Lb.Conn.Established then send conn))
          end
          else Lb.Device.close_conn device conn);
      closed = (fun _ -> ());
      reset = (fun _ -> ());
      dispatch_failed = (fun () -> ());
    }
  in
  for i = 0 to 5 do
    ignore
      (Engine.Sim.schedule sim
         ~at:(Engine.Sim_time.add (ms 1) (ms 1 * i))
         (fun () ->
           Lb.Device.connect device ~tenant:0 ~events:(two_chunk_events ())))
  done;
  ignore
    (Engine.Sim.schedule sim ~at:(ms 4) (fun () ->
         Lb.Device.isolate_worker device 1));
  Engine.Sim.run_until sim ~limit:(ms 20)

(* Hermes with a two-entry fault plan: the program faults from 2 ms to
   5 ms (selections in the window go [via=hash]), then worker 2 hangs
   from 7 ms to 15 ms.  Probes sent in the hang's first millisecond,
   before the next scheduler pass filters worker 2 out, can land on it
   and show [probe.timeout] (2 ms timeout) queued behind the stall. *)
let fault_window () =
  let device, sim =
    make_device (Lb.Device.Hermes Hermes.Config.default) ~workers:4 ~seed:42
  in
  Lb.Device.start device;
  Faults.Inject.arm ~device
    ~plan:
      Faults.Plan.
        [
          { at = ms 2; action = Ebpf_fail { duration = ms 3 } };
          { at = ms 7; action = Hang { worker = 2; duration = ms 8 } };
        ];
  for i = 0 to 5 do
    ignore
      (Engine.Sim.schedule sim
         ~at:(Engine.Sim_time.add (ms 7) (us 200 * i))
         (fun () ->
           Lb.Device.probe_once device ~tenant:0 ~timeout:(ms 2)
             ~on_result:ignore))
  done;
  drive device sim ~conns:16 ~spacing:(ms 1) ~costs:[ us 100; us 300 ]
    ~limit:(ms 18)

(* Two Hermes members behind the VIP, each with a fault plan, one
   200 us request per connection.  At 20 ms a rolling replacement
   swaps both for reuseport members while the 19.95 ms connection is
   still one hop from its member.  The members' records arrive merged
   into the caller's recorder; a summary line of the control-side
   outcomes follows the trace. *)
let fleet_drain () =
  let module C = Cluster.Lb_cluster in
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create 11 in
  let tenants = Netsim.Tenant.population ~n:2 ~base_dport:20000 in
  let cluster =
    C.create ~sim ~rng ~tenants ~devices:2
      ~mode:(Lb.Device.Hermes Hermes.Config.default) ~workers:2 ()
  in
  let plan : Faults.Plan.t =
    [
      { at = ms 5; action = Ebpf_fail { duration = ms 3 } };
      { at = ms 12; action = Crash { worker = 1 } };
      { at = ms 16; action = Recover { worker = 1 } };
    ]
  in
  List.iter
    (fun (slot, _) ->
      C.run_on cluster ~slot (fun dev -> Faults.Inject.arm ~device:dev ~plan))
    (C.devices cluster);
  let issued = ref 0 and established = ref 0 and failed = ref 0 in
  let closed = ref 0 and resets = ref 0 and served = ref 0 in
  let connect tenant =
    incr issued;
    C.connect cluster ~tenant
      ~events:
        {
          established =
            (fun h ->
              incr established;
              C.send h
                (Lb.Request.make ~id:(C.fresh_id cluster)
                   ~op:Lb.Request.Plain_proxy ~size:64 ~cost:(us 200)
                   ~tenant_id:tenant));
          request_done =
            (fun h _ ->
              incr served;
              C.close h);
          closed = (fun _ -> incr closed);
          reset = (fun _ -> incr resets);
          dispatch_failed = (fun () -> incr failed);
        }
  in
  List.iteri
    (fun i at ->
      ignore (Engine.Sim.schedule sim ~at (fun () -> connect (i mod 2))))
    [ ms 1; ms 3; ms 6; ms 9; ms 13; ms 17; us 19_950; ms 25; ms 30 ];
  ignore
    (Engine.Sim.schedule sim ~at:(ms 20) (fun () ->
         C.rolling_replace cluster ~new_mode:Lb.Device.Reuseport ~poll:(ms 1)
           ~on_done:ignore ()));
  Engine.Sim.run_until sim ~limit:(ms 40);
  Printf.printf
    "# issued=%d established=%d dispatch_failed=%d served=%d closed=%d \
     resets=%d completed=%d size=%d\n"
    !issued !established !failed !served !closed !resets (C.completed cluster)
    (C.size cluster)

let all =
  [
    {
      name = "lifo_herd";
      header = "# scenario lifo_herd: epoll-exclusive, 4 workers, 6 spaced connects";
      run = lifo_herd;
    };
    {
      name = "rr_rotation";
      header = "# scenario rr_rotation: epoll-rr, 4 workers, 8 spaced connects";
      run = rr_rotation;
    };
    {
      name = "hash_skew";
      header = "# scenario hash_skew: plain reuseport, 4 workers, 10 hashed connects";
      run = hash_skew;
    };
    {
      name = "filter_cascade";
      header =
        "# scenario filter_cascade: Hermes (Algo 1 + Algo 2), 4 workers, mixed costs";
      run = filter_cascade;
    };
    {
      name = "splice_handoff";
      header =
        "# scenario splice_handoff: splice mode, 4 workers, 6 two-chunk conns, \
         isolate at 4ms";
      run = splice_handoff;
    };
    {
      name = "fault_window";
      header =
        "# scenario fault_window: Hermes, 4 workers, ebpf_fail 2-5ms, hang \
         worker 2 7-15ms, probes";
      run = fault_window;
    };
    {
      name = "fleet_drain";
      header =
        "# scenario fleet_drain: 2 Hermes members, fault plan, rolling \
         replace to reuseport at 20ms with a connect in flight";
      run = fleet_drain;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all
