(* Splice fast-path benchmarks: the in-kernel splice data-plane numbers.

   - [splice_redirect]: one sockmap redirect verdict through the
     closure JIT vs the bytecode interpreter on the same verified
     program (certificate-directed guard elision means the JIT runs
     with zero residual checks).  The gate requires exactly zero minor
     words per op on the JIT path — the verdict runs per chunk, on the
     kernel side of the model.
   - [proxy_vs_splice_short_rpc] / [proxy_vs_splice_long_stream]: the
     same seeded traffic served by a userspace-proxy device (reuseport
     dispatch) and a splice-mode device; the columns are simulated LB
     CPU nanoseconds per completed request, so the speedup is the
     proxy-bypass factor itself, not host wall clock.  Long streams
     must clear 2x — the headline claim the splice rows pin; short
     RPCs also win (their per-request cost in this model is dominated
     by the copyin/copyout the splice elides) but carry a looser
     floor, since a handful of sub-KB exchanges amortizes the attach
     far less. *)

module ST = Engine.Sim_time

(* Local to each family on purpose: the timed loops call it per op, and
   only a same-module definition gets inlined there. *)
let mix i = (i * 0x61C88647) lxor (i lsr 7)

(* ------------------------------------------------------------------ *)
(* Redirect verdict: JIT vs interpreter                                 *)

let redirect_setup ~slots =
  let m_splice = Kernel.Ebpf_maps.Sockmap.create ~name:"M_splice" ~size:slots in
  (* 3/4 of the slots live, so both engines exercise the miss path. *)
  for k = 0 to slots - 1 do
    if k mod 4 <> 3 then
      Kernel.Ebpf_maps.Sockmap.set m_splice k ~conn:(1000 + k) ~target:(k land 7)
  done;
  let prog = Hermes.Dispatch.splice_prog ~m_splice ~copy:256 () in
  match Kernel.Verifier.compile_and_verify prog with
  | Error e -> failwith (Kernel.Verifier.error_to_string e)
  | Ok vm ->
    if not (Kernel.Ebpf_vm.fully_proved vm) then
      failwith "splice bench: program left residual runtime checks";
    (vm, Kernel.Ebpf_jit.compile vm)

let redirect_scenario ~slots ~ops =
  let vm, jit = redirect_setup ~slots in
  let jit_thunk () =
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      let code = Kernel.Ebpf_jit.exec jit ~flow_hash:(mix i) ~dst_port:80 in
      sum := !sum + code;
      if code = 3 then
        match Kernel.Ebpf_jit.redirected jit with
        | Some e ->
          sum :=
            !sum + e.Kernel.Ebpf_maps.Sockmap.conn
            + e.Kernel.Ebpf_maps.Sockmap.target
        | None -> failwith "splice bench: redirect code without entry"
    done;
    !sum
  in
  let vm_thunk () =
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      let outcome, _cycles =
        Kernel.Ebpf_vm.run vm { Kernel.Ebpf.flow_hash = mix i; dst_port = 80 }
      in
      match outcome with
      | Kernel.Ebpf.Redirected { conn; target; copy = _ } ->
        sum := !sum + 3 + conn + target
      | Kernel.Ebpf.Fell_back -> ()
      | Kernel.Ebpf.Selected _ | Kernel.Ebpf.Dropped ->
        failwith "splice bench: unexpected outcome"
    done;
    !sum
  in
  let words () =
    for i = 0 to ops - 1 do
      ignore (Kernel.Ebpf_jit.exec jit ~flow_hash:(mix i) ~dst_port:80)
    done
  in
  (jit_thunk, vm_thunk, words)

(* ------------------------------------------------------------------ *)
(* Proxy vs splice on the workload axis                                 *)

let cpu_consumed device =
  Array.fold_left
    (fun acc (s : Lb.Device.tenant_stats) -> ST.add acc s.Lb.Device.cpu_consumed)
    0
    (Lb.Device.tenant_report device)

(* One warm-up/measure device run; returns (LB CPU ns per completed
   request, completed). *)
let run_leg ~mode ~profile ~quick =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create 0xC0FFEE in
  let device_rng = Engine.Rng.split rng in
  let tenants = Netsim.Tenant.population ~n:4 ~base_dport:20000 in
  let device =
    Lb.Device.create ~sim ~rng:device_rng ~mode ~workers:8 ~tenants ()
  in
  Lb.Device.start device;
  let driver = Workload.Driver.start ~device ~profile ~rng () in
  let warmup = if quick then ST.ms 300 else ST.sec 1 in
  let measure = if quick then ST.ms 700 else ST.sec 2 in
  Engine.Sim.run_until sim ~limit:warmup;
  Lb.Device.reset_measurements device;
  Lb.Device.reset_tenant_report device;
  Engine.Sim.run_until sim ~limit:(ST.add (Engine.Sim.now sim) measure);
  Workload.Driver.stop driver;
  let completed = Lb.Device.completed device in
  if completed = 0 then failwith "splice bench: no completed requests";
  (ST.to_sec_f (cpu_consumed device) *. 1e9 /. float_of_int completed, completed)

let proxy_vs_splice ~name ~axis ~size ~quick =
  let profile = Workload.Cases.splice_profile axis ~workers:8 in
  let base_ns, completed_base =
    run_leg ~mode:Lb.Device.Reuseport ~profile ~quick
  in
  let fast_ns, completed_fast = run_leg ~mode:Lb.Device.Splice ~profile ~quick in
  Harness.Row.v ~family:"splice" ~name ~size
    [
      ("fast_ns", fast_ns);
      ("base_ns", base_ns);
      ("speedup", base_ns /. fast_ns);
      ("checksum", float_of_int (completed_base + completed_fast));
    ]

(* ------------------------------------------------------------------ *)

let run ~quick =
  let size = Harness.Row.size ~quick in
  let reps = if quick then 5 else 3 in
  let ops = if quick then 300_000 else 3_000_000 in
  let redirect =
    let fast, base, words = redirect_scenario ~slots:4096 ~ops in
    Harness.paired ~family:"splice" ~name:"splice_redirect" ~size ~reps ~ops
      ~words fast base
  in
  [
    redirect;
    proxy_vs_splice ~name:"proxy_vs_splice_short_rpc"
      ~axis:Workload.Cases.Short_rpc ~size ~quick;
    proxy_vs_splice ~name:"proxy_vs_splice_long_stream"
      ~axis:Workload.Cases.Long_streaming ~size ~quick;
  ]

(* The gate:
   - every row keeps >= 75% of the committed same-size baseline
     speedup, and holds its absolute floor: the long-streaming
     proxy-bypass factor is the headline (>= 2x; the model actually
     lands far above), short RPCs must still win, and the JIT must
     beat the interpreter on the verdict;
   - [splice_redirect] allocates exactly zero minor words per op. *)
let gates (r : Harness.Row.t) =
  let open Harness.Gate in
  v "speedup" (Rel_floor 0.75)
  ::
  (match r.name with
  | "splice_redirect" -> [ v "speedup" (Floor 1.5); v "fast_words" Zero ]
  | "proxy_vs_splice_short_rpc" -> [ v "speedup" (Floor 1.2) ]
  | "proxy_vs_splice_long_stream" -> [ v "speedup" (Floor 2.0) ]
  | _ -> [])

let family = Harness.Family.v "splice" run ~gates
