(** Ablations of Hermes design choices called out in the paper.

    - filter cascade order and metric subsets (§5.2.2)
    - scheduler placement at loop end vs loop start (§5.3.2)
    - two-stage filtering: the kernel's min-selected fallback threshold
      (§5.3.2 / Algo 2's n > 1)
    - two-level grouping: group size 64 (standard) -> 4 -> 1 (which
      degenerates to reuseport), and Dport-locality grouping (Fig. A6)
    - the §7 failed mitigation: staggering wait-queue registration
      order per port under epoll exclusive

    All variants run the same moderately overloaded heavy-request mix;
    we report P99, throughput, and the connection-count SD across
    workers. *)

let name = "ablation"
let title = "Hermes design-choice ablations"

module ST = Engine.Sim_time

let one_run ~seed ~workers ?hermes_group_size ?hermes_select_mode ~stagger
    ~mode ~quick () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create seed in
  let device_rng = Engine.Rng.split rng in
  (* Many tenants with skewed popularity: the regime in which static
     per-port tricks fail (#ports >> #workers, dominant tenants). *)
  let tenants = Netsim.Tenant.population ~n:64 ~base_dport:20000 in
  let device =
    Lb.Device.create ~sim ~rng:device_rng ~mode ~workers ~tenants
      ?hermes_group_size ?hermes_select_mode ~stagger_registration:stagger ()
  in
  (* Tenant skew matching §7's observation (top tenants carry ~40/28/22%
     of a region's traffic): this is what defeats static per-port
     assignment. *)
  let profile =
    {
      (Workload.Profile.scale_rate
         (Workload.Cases.profile Workload.Cases.Case4 ~workers)
         1.3)
      with
      Workload.Profile.tenant_skew = 1.6;
    }
  in
  let warmup = if quick then ST.ms 500 else ST.sec 1 in
  let measure = if quick then ST.sec 1 else ST.sec 3 in
  let report = Workload.Driver.run ~device ~profile ~rng ~warmup ~measure () in
  let conn_sd =
    Stats.Summary.stddev
      (Array.map float_of_int (Lb.Device.conns_per_worker device))
  in
  (report.Workload.Driver.avg_ms, report.throughput_krps, conn_sd)

let median xs =
  let arr = Array.of_list xs in
  (* total float order, not polymorphic compare: NaN under [compare]
     sorts inconsistently and can shift every rank around it *)
  Array.sort Float.compare arr;
  arr.(Array.length arr / 2)

let measure_mode ?(workers = 8) ?hermes_group_size ?hermes_select_mode
    ?(stagger = false) ~mode ~quick () =
  let seeds = if quick then [ 0; 1; 2 ] else [ 0; 1; 2; 3; 4 ] in
  let runs =
    List.map
      (fun s ->
        one_run ~seed:(Common.seed + (1000 * s)) ~workers ?hermes_group_size
          ?hermes_select_mode ~stagger ~mode ~quick ())
      seeds
  in
  (* medians: the stall tail makes per-run latency noisy; conn SD is the
     stable design signal *)
  ( median (List.map (fun (a, _, _) -> a) runs),
    median (List.map (fun (_, t, _) -> t) runs),
    median (List.map (fun (_, _, s) -> s) runs) )

let hermes_with f = Lb.Device.Hermes (f Hermes.Config.default)

let run ?(quick = false) () =
  Common.section "Ablation" title;
  let table =
    Stats.Table.create
      ~header:[ "Variant"; "Avg lat (ms)"; "Thr (kRPS)"; "Conn SD" ]
  in
  let add label ?hermes_group_size ?hermes_select_mode ?stagger mode =
    let avg, thr, sd =
      measure_mode ?hermes_group_size ?hermes_select_mode ?stagger ~mode ~quick ()
    in
    Stats.Table.add_row table
      [
        label;
        Stats.Table.cell_f avg;
        Stats.Table.cell_f thr;
        Stats.Table.cell_f sd;
      ]
  in
  let open Hermes.Config in
  add "hermes (paper config)" Common.hermes_default;
  add "hermes (kernel bytecode JIT)"
    (hermes_with (fun c -> { c with kernel_jit = true }));
  (* Filter order and metric subsets. *)
  add "order: time,event,conn"
    (hermes_with (fun c -> { c with filter_order = [ By_time; By_event; By_conn ] }));
  add "metrics: time only"
    (hermes_with (fun c -> { c with filter_order = [ By_time ] }));
  add "metrics: no time filter"
    (hermes_with (fun c -> { c with filter_order = [ By_conn; By_event ] }));
  add "metrics: conn only"
    (hermes_with (fun c -> { c with filter_order = [ By_time; By_conn ] }));
  add "metrics: event only"
    (hermes_with (fun c -> { c with filter_order = [ By_time; By_event ] }));
  Stats.Table.add_separator table;
  (* Scheduler placement. *)
  add "scheduler at loop start"
    (hermes_with (fun c -> { c with schedule_at_loop_end = false }));
  (* Single- vs two-stage filtering. *)
  add "min_selected = 1 (single worker ok)"
    (hermes_with (fun c -> { c with min_selected = 1 }));
  add "min_selected = 4"
    (hermes_with (fun c -> { c with min_selected = 4 }));
  Stats.Table.add_separator table;
  (* Grouping. *)
  add "groups of 4 (flow hash)" ~hermes_group_size:4 Common.hermes_default;
  add "groups of 4 (Dport locality)" ~hermes_group_size:4
    ~hermes_select_mode:Hermes.Groups.By_dst_port Common.hermes_default;
  add "groups of 1 (= reuseport)" ~hermes_group_size:1 Common.hermes_default;
  add "reuseport (reference)" Lb.Device.Reuseport;
  Stats.Table.add_separator table;
  (* The failed static mitigation for exclusive, and the io_uring
     FIFO wakeup order (section 8): a fixed order either way. *)
  add "exclusive" Lb.Device.Exclusive;
  add "exclusive + staggered registration" ~stagger:true Lb.Device.Exclusive;
  add "io_uring FIFO wakeup" Lb.Device.Io_uring_fifo;
  Stats.Table.print table;
  Common.note "groups of 1 should match reuseport; staggering should not fix exclusive"
