type t = {
  cfg : Config.t;
  grouping : Groups.t;
  metric_hooks : Metrics.t array;
  sched_scratch : Scheduler.scratch array;  (* one per worker, reused *)
  mutable sync_defer : ((unit -> unit) -> unit) option;
  mutable scheduler_cycles : int;
  mutable scheduler_calls : int;
  mutable sync_calls : int;
  mutable pass_sum : int;
  mutable considered_sum : int;
}

let syscall_cost_cycles = 1500

(* Minimum virtual latency of any cross-shard interaction — the
   lookahead that bounds how far the cluster coordinator may run one
   shard ahead of another.  Mirrors the modelled client RTT so a
   control->device message never undercuts the slowest in-shard path. *)
let cross_shard_latency () = Engine.Sim_time.us 100

let create ?(group_size = 64) ?(select_mode = Groups.By_flow_hash) ~config
    ~workers () =
  let grouping = Groups.create ~workers ~group_size ~mode:select_mode in
  let metric_hooks =
    Array.init workers (fun w ->
        let g, within = Groups.group_of_worker grouping w in
        Metrics.create ~wst:(Groups.wst grouping g) ~worker:within)
  in
  {
    cfg = config;
    grouping;
    metric_hooks;
    sched_scratch = Array.init workers (fun _ -> Scheduler.make_scratch ());
    sync_defer = None;
    scheduler_cycles = 0;
    scheduler_calls = 0;
    sync_calls = 0;
    pass_sum = 0;
    considered_sum = 0;
  }

let config t = t.cfg
let workers t = Groups.workers t.grouping
let groups t = t.grouping
let hooks t w = t.metric_hooks.(w)

let make_prog t ~m_socket =
  Groups.make_prog t.grouping ~m_socket ~min_selected:t.cfg.min_selected

let set_sync_defer t defer = t.sync_defer <- defer

let schedule_and_sync t ~worker ~now =
  let g, _ = Groups.group_of_worker t.grouping worker in
  let scratch = t.sched_scratch.(worker) in
  Scheduler.run scratch ~config:t.cfg ~wst:(Groups.wst t.grouping g) ~now;
  let result = Scheduler.result scratch in
  (* The bitmap push is a bpf() syscall; under an injected map-sync
     delay the store lands later, and the kernel keeps dispatching on
     the previous bitmap in the interim. *)
  let m_sel = Groups.m_sel t.grouping in
  (match t.sync_defer with
  | None -> Kernel.Ebpf_maps.Syscall.update_elem m_sel g result.bitmap
  | Some defer ->
    defer (fun () -> Kernel.Ebpf_maps.Syscall.update_elem m_sel g result.bitmap));
  t.scheduler_cycles <- t.scheduler_cycles + result.cycles;
  t.scheduler_calls <- t.scheduler_calls + 1;
  t.sync_calls <- t.sync_calls + 1;
  t.pass_sum <- t.pass_sum + result.passed;
  t.considered_sum <- t.considered_sum + result.total;
  result

let mark_dead t ~worker =
  let g, within = Groups.group_of_worker t.grouping worker in
  (* A timestamp of 0 is always older than any positive threshold once
     the clock has advanced past it. *)
  Wst.set_avail (Groups.wst t.grouping g) within ~now:0

type accounting = {
  counter_cycles : int;
  scheduler_cycles : int;
  syscall_cycles : int;
  scheduler_calls : int;
  sync_calls : int;
  pass_sum : int;
  considered_sum : int;
}

let accounting t =
  {
    counter_cycles =
      Array.fold_left (fun acc h -> acc + Metrics.cycles h) 0 t.metric_hooks;
    scheduler_cycles = t.scheduler_cycles;
    syscall_cycles = t.sync_calls * syscall_cost_cycles;
    scheduler_calls = t.scheduler_calls;
    sync_calls = t.sync_calls;
    pass_sum = t.pass_sum;
    considered_sum = t.considered_sum;
  }

let pass_ratio (t : t) =
  if t.considered_sum = 0 then 0.0
  else float_of_int t.pass_sum /. float_of_int t.considered_sum

let reset_accounting t =
  Array.iter Metrics.reset_accounting t.metric_hooks;
  t.scheduler_cycles <- 0;
  t.scheduler_calls <- 0;
  t.sync_calls <- 0;
  t.pass_sum <- 0;
  t.considered_sum <- 0
