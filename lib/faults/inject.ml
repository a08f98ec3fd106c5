module Sim = Engine.Sim
module Sim_time = Engine.Sim_time
module Device = Lb.Device
module Worker = Lb.Worker

let slowdown_period = Sim_time.ms 5

let emit_inject ~fault ~worker ~arg =
  if Trace.enabled () then Trace.emit (Trace.Fault_inject { fault; worker; arg })

let emit_clear ~fault ~worker =
  if Trace.enabled () then Trace.emit (Trace.Fault_clear { fault; worker })

(* Freeze the victim's WST availability column, if there is one. *)
let set_wst_stall device ~worker on =
  match Device.hermes_runtime device with
  | None -> ()
  | Some rt ->
    let groups = Hermes.Runtime.groups rt in
    let g, within = Hermes.Groups.group_of_worker groups worker in
    Hermes.Wst.set_stall (Hermes.Groups.wst groups g) within on

let stall ~device ~worker ~cost =
  ignore
    (Worker.inject_stall (Device.worker device worker) ~req_id:(Device.fresh_id device)
       ~cost)

let fire ~device (entry : Plan.entry) =
  let sim = Device.sim device in
  let fault = Plan.kind entry.action in
  let worker = Option.value (Plan.worker_of entry.action) ~default:(-1) in
  let arg =
    match entry.action with
    | Plan.Map_sync_delay { delay; _ } -> delay
    | action -> Option.value (Plan.duration_of action) ~default:0
  in
  emit_inject ~fault ~worker ~arg;
  let clear_after duration undo =
    ignore
      (Sim.schedule_after sim ~delay:duration (fun () ->
           undo ();
           emit_clear ~fault ~worker))
  in
  match entry.action with
  | Plan.Crash { worker } -> Device.crash_worker device worker
  | Plan.Isolate { worker } -> Device.isolate_worker device worker
  | Plan.Recover { worker } ->
    Device.recover_worker device worker;
    (* The matching end of the [crash] window, for the monitors. *)
    emit_clear ~fault:Trace.Crash ~worker
  | Plan.Hang { worker; duration } | Plan.Gc_pause { worker; duration } ->
    stall ~device ~worker ~cost:duration;
    clear_after duration (fun () -> ())
  | Plan.Slowdown { worker; factor; duration } ->
    let burn = slowdown_period * (factor - 1) / factor in
    let rec tick remaining =
      if remaining > 0 then begin
        stall ~device ~worker ~cost:(Sim_time.min burn remaining);
        ignore
          (Sim.schedule_after sim ~delay:slowdown_period (fun () ->
               tick (remaining - slowdown_period)))
      end
    in
    tick duration;
    clear_after duration (fun () -> ())
  | Plan.Wst_stall { worker; duration } ->
    set_wst_stall device ~worker true;
    clear_after duration (fun () -> set_wst_stall device ~worker false)
  | Plan.Map_sync_delay { delay; duration } ->
    Device.set_map_sync_delay device (Some delay);
    clear_after duration (fun () -> Device.set_map_sync_delay device None)
  | Plan.Ebpf_fail { duration } ->
    Device.fail_ebpf_prog device;
    clear_after duration (fun () -> Device.restore_ebpf_prog device)
  | Plan.Probe_loss { duration } ->
    Device.set_probe_loss device true;
    clear_after duration (fun () -> Device.set_probe_loss device false)
  | Plan.Accept_overflow { worker; duration } ->
    Device.overflow_accept_queue device ~worker;
    clear_after duration (fun () -> Device.restore_accept_queue device ~worker)
  | Plan.Splice_desync { worker; duration } ->
    Device.set_splice_desync device ~worker true;
    clear_after duration (fun () -> Device.set_splice_desync device ~worker false)

let arm ~device ~plan =
  let sim = Device.sim device in
  List.iter
    (fun (entry : Plan.entry) ->
      ignore (Sim.schedule sim ~at:entry.at (fun () -> fire ~device entry)))
    plan
