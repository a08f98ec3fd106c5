(* Host-cost benchmark of the simulator: how fast one OCaml domain
   turns a fixed simulated workload into completed requests, and where
   that wall time goes layer by layer.

   One run = one workload, one seed.  The run repeats the same seeded
   repetition ("rep") until [--seconds] of wall time have passed and
   reports quantiles over reps; every rep must reproduce the first rep's
   simulated fingerprint exactly.  [--trace 0] prints the end-to-end
   metrics; [--trace 1] prints the per-layer metrics from rounds of
   traced passes over the same seed (see README.md). *)

module Sim = Engine.Sim
module ST = Engine.Sim_time
module Device = Lb.Device
module Monitor = Faults.Monitor

let workers = 8

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

type workload = {
  name : string;
  mode : Device.mode;
  tenants : int;
  script : Client.script;
  warm : ST.t;
  measure : ST.t;
  drain : ST.t;
  chaos : bool;  (** fault plan, prober and online monitor *)
  splice_copy : int;
}

type variant = Default | Kernel_jit | Reuseport

let variant_of_string = function
  | "default" -> Some Default
  | "kernel_jit" -> Some Kernel_jit
  | "reuseport" -> Some Reuseport
  | _ -> None

let hermes_mode = function
  | Default -> Device.Hermes Hermes.Config.default
  | Kernel_jit -> Device.Hermes { Hermes.Config.default with kernel_jit = true }
  | Reuseport -> Device.Reuseport

let workload_names = [ "churn"; "longlived"; "splice_stream"; "chaos" ]

let make_workload name ~variant ~scale =
  let ms = ST.ms in
  let case c = Workload.Cases.profile c ~workers in
  let build ~mode ~tenants ~profile ~arrivals_until ~warm ~measure ~drain ~chaos
      ~splice_copy =
    let measure = scale * measure in
    let traffic_until = warm + measure in
    let arrivals_until = Option.value arrivals_until ~default:traffic_until in
    {
      name;
      mode;
      tenants;
      script =
        {
          Client.profile;
          arrivals_until;
          traffic_until;
          measure_from = warm;
          measure_until = traffic_until;
          retries = (if chaos then 3 else 0);
          retry_after = ms 5;
        };
      warm;
      measure;
      drain;
      chaos;
      splice_copy;
    }
  in
  match name with
  | "churn" ->
    (* Case 1 at 1.8x its arrival rate: one request per connection, so
       every request pays a full SYN-to-close cycle.  The fingerprint's
       worker_util reads 0.67-0.70 over the measured phase (Case 1 as
       shipped reads 0.39). *)
    let profile = Workload.Profile.scale_rate (case Workload.Cases.Case1) 1.8 in
    Some
      (build ~mode:(hermes_mode variant) ~tenants:64 ~profile ~arrivals_until:None
         ~warm:(ms 100) ~measure:(ms 400) ~drain:(ms 50) ~chaos:false ~splice_copy:0)
  | "longlived" ->
    (* 4,400 connections open in the first 300 ms and then send Case 3
       requests (67 us mean) every ~50 ms until the window ends:
       4400 * 20/s * 67 us / 8 cores = 74% utilisation. *)
    let p = case Workload.Cases.Case3 in
    let profile =
      { p with cps = 4400.0 /. 0.3; requests_per_conn = Engine.Dist.constant 1e6 }
    in
    Some
      (build ~mode:(hermes_mode variant) ~tenants:64 ~profile
         ~arrivals_until:(Some (ms 300)) ~warm:(ms 400) ~measure:(ms 600)
         ~drain:(ms 50) ~chaos:false ~splice_copy:0)
  | "splice_stream" ->
    (* The long-streaming splice profile: ~100 x 64 KiB chunks per
       connection, each chunk redirected in-kernel with a 256-byte
       selective copy for L7 inspection.  Connections live ~2 s, so the
       warm-up lasts that long and the measured phase sees the steady
       number of live connections. *)
    let profile = Workload.Cases.splice_profile Workload.Cases.Long_streaming ~workers in
    Some
      (build ~mode:Device.Splice ~tenants:64 ~profile ~arrivals_until:None
         ~warm:(ms 2000) ~measure:(ms 1500) ~drain:(ms 50) ~chaos:false
         ~splice_copy:256)
  | "chaos" ->
    (* The canonical fault plan spans 0.5-5.9 s; Case 1 at light load
       (worker_util reads 0.41, probes and fault carriers included). *)
    Some
      (build ~mode:(hermes_mode variant) ~tenants:4 ~profile:(case Workload.Cases.Case1)
         ~arrivals_until:None ~warm:(ms 400) ~measure:(ms 5600) ~drain:(ms 300)
         ~chaos:true ~splice_copy:0)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Trace counting                                                       *)

let c_records = 0
let c_sched_result = 1
let c_sched_filter = 2
let c_map_update = 3
let c_wst_write = 4
let c_prog_run = 5
let c_rp_prog = 6
let c_rp_hash = 7
let c_rp_drop = 8
let c_epoll_batches = 9
let c_epoll_events = 10
let c_splice_redirects = 11
let c_splice_bytes = 12
let c_splice_copied = 13
let c_fault_inject = 14
let n_counts = 15

let count (c : int array) (r : Trace.record) =
  let bump i n = c.(i) <- c.(i) + n in
  bump c_records 1;
  match r.event with
  | Trace.Sched_result _ -> bump c_sched_result 1
  | Trace.Sched_filter _ -> bump c_sched_filter 1
  | Trace.Map_update _ -> bump c_map_update 1
  | Trace.Wst_write _ -> bump c_wst_write 1
  | Trace.Prog_run _ -> bump c_prog_run 1
  | Trace.Rp_select { via = Trace.Prog; _ } -> bump c_rp_prog 1
  | Trace.Rp_select { via = Trace.Hash; _ } -> bump c_rp_hash 1
  | Trace.Rp_drop _ -> bump c_rp_drop 1
  | Trace.Epoll_dispatch { events; _ } ->
    bump c_epoll_batches 1;
    bump c_epoll_events (List.length events)
  | Trace.Splice_redirect { bytes; copied; _ } ->
    bump c_splice_redirects 1;
    bump c_splice_bytes bytes;
    bump c_splice_copied copied
  | Trace.Fault_inject _ -> bump c_fault_inject 1
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* One repetition                                                       *)

(* [E2e] is the end-to-end configuration: no program trace, except on
   chaos, where the online monitor consumes it.  [Bare] drops even
   that sink (the untraced baseline of the trace-overhead metrics).
   [Spans] arms the benchmark's span timers with the program trace
   off.  [Counting] installs a sink that only counts records, with no
   timer, so its wall time less [Bare]'s is the cost of tracing.
   [Observing] installs a sink that feeds a timed invariant monitor. *)
type pass = E2e | Bare | Spans | Counting | Observing

type fingerprint = {
  completed : int;
  drops : int;
  resets : int;
  events : int;
  p50_ms : float;
  p99_ms : float;
  util : float;  (** mean simulated worker utilisation, measured phase *)
}

let pp_fingerprint f =
  Printf.sprintf
    "completed=%d drops=%d resets=%d events_fired=%d sim_p50_ms=%.6f sim_p99_ms=%.6f \
     worker_util=%.4f"
    f.completed f.drops f.resets f.events f.p50_ms f.p99_ms f.util

type rep = {
  setup_ns : int;
  wall_ns : int;  (** driving wall: warm-up + measured phase + drain *)
  measured_ns : int;
  measured_completed : int;
  completed : int;  (** client completions over the whole rep *)
  issued : int;
  failed : int;
  problems : string list;
  fp : fingerprint;
  minor_words : float;  (** measured phase *)
  promoted_words : float;
  major_collections : int;
  top_heap_words : int;
  counts : int array;
  observe_ns : int;
  observe_calls : int;
}

let monitor_config (w : workload) =
  match w.mode with
  | Device.Hermes cfg ->
    { Monitor.default_config with staleness_window = cfg.Hermes.Config.avail_threshold }
  | _ -> { Monitor.default_config with expect_exclusion = false; expect_fallback = false }

type env = {
  sim : Sim.t;
  device : Device.t;
  client_rng : Engine.Rng.t;
  prober : Lb.Probe.Per_worker.t option;
}

(* Everything up to the first simulated event: this is [setup_s]. *)
let setup (w : workload) ~seed ~sink =
  let sim = Sim.create () in
  let rng = Engine.Rng.create seed in
  let device_rng = Engine.Rng.split rng in
  let tenants = Netsim.Tenant.population ~n:w.tenants ~base_dport:20000 in
  let device =
    Device.create ~sim ~rng:device_rng ~mode:w.mode ~workers ~tenants
      ~splice_copy:w.splice_copy ()
  in
  Option.iter Trace.install sink;
  Device.start device;
  let prober =
    if w.chaos then begin
      Faults.Inject.arm ~device ~plan:Faults.Chaos.default_plan;
      Some (Lb.Probe.Per_worker.start ~config:Lb.Probe.default_config ~target:device)
    end
    else None
  in
  { sim; device; client_rng = Engine.Rng.split rng; prober }

let slice = ST.ms 1

let drive sim ~until =
  while Sim.now sim < until do
    let limit = min until (Sim.now sim + slice) in
    if !Span.on then Span.enter Span.slice (-1);
    Sim.run_until sim ~limit;
    if !Span.on then Span.leave ()
  done

let sum_workers device f =
  Array.fold_left (fun acc w -> acc + f w) 0 (Device.workers device)

(* The conservation rules every rep must satisfy after its drain. *)
let check (w : workload) (c : Client.t) device monitor =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if c.issued <> c.completed + c.dropped + c.reset then
    fail "requests: issued %d <> completed %d + dropped %d + reset %d" c.issued
      c.completed c.dropped c.reset;
  if c.live <> 0 then fail "%d client connections still open after the drain" c.live;
  if c.established <> c.closed + c.conns_reset then
    fail "client connections: established %d <> closed %d + reset %d" c.established
      c.closed c.conns_reset;
  if not w.chaos then begin
    (* Without faults or probes the device serves only this client, so
       its counters must match the client's view one for one. *)
    let stat f = sum_workers device (fun wk -> f (Lb.Worker.stats wk)) in
    let accepted = stat (fun s -> s.Lb.Worker.accepted) in
    let closed = stat (fun s -> s.Lb.Worker.closed + s.Lb.Worker.resets) in
    let open_ = sum_workers device Lb.Worker.conn_count in
    if accepted <> closed + open_ then
      fail "accepted %d <> closed %d + open %d" accepted closed open_;
    if accepted <> c.established then
      fail "device accepted %d <> client established %d" accepted c.established;
    if Device.completed device <> c.completed then
      fail "device completed %d <> client completed %d" (Device.completed device)
        c.completed;
    if Device.dropped device <> c.syn_drops || Device.conns_reset device <> c.conns_reset
    then fail "device drops/resets disagree with the client"
  end;
  (match Device.splice device with
  | Some sp ->
    let s = Lb.Splice.stats sp in
    let live = Lb.Splice.attached sp in
    if s.Lb.Splice.attaches <> s.Lb.Splice.teardowns + live then
      fail "sockmap: attaches %d <> teardowns %d + live %d" s.Lb.Splice.attaches
        s.Lb.Splice.teardowns live
  | None -> ());
  (match monitor with
  | Some m ->
    List.iter (fail "monitor: %s") (Monitor.finalize m ~device).Monitor.violations
  | None -> ());
  List.rev !problems

let run_rep (w : workload) ~seed ~pass =
  Gc.compact ();
  let counts = Array.make n_counts 0 in
  let observe_ns = ref 0 and observe_calls = ref 0 in
  let monitor =
    match pass with
    | Observing -> Some (Monitor.create (monitor_config w))
    | E2e when w.chaos -> Some (Monitor.create (monitor_config w))
    | E2e | Bare | Spans | Counting -> None
  in
  let sink =
    match (pass, monitor) with
    | Counting, _ -> Some { Trace.write = count counts; close = ignore }
    | Observing, Some m ->
      Some
        {
          Trace.write =
            (fun r ->
              let t0 = Span.now_ns () in
              Monitor.observe m r;
              observe_ns := !observe_ns + (Span.now_ns () - t0);
              incr observe_calls);
          close = ignore;
        }
    | _, Some m -> Some { Trace.write = Monitor.observe m; close = ignore }
    | _, None -> None
  in
  if pass = Spans then Span.reset ();
  let t_setup = Span.now_ns () in
  let env = setup w ~seed ~sink in
  let setup_ns = Span.now_ns () - t_setup in
  let c = Client.start ~device:env.device ~script:w.script ~rng:env.client_rng in
  Span.on := pass = Spans;
  let d0 = Span.now_ns () in
  drive env.sim ~until:w.warm;
  let busy0 = Device.cpu_busy_per_worker env.device in
  let g0 = Gc.quick_stat () in
  let m0 = Span.now_ns () in
  drive env.sim ~until:(w.warm + w.measure);
  let m1 = Span.now_ns () in
  let g1 = Gc.quick_stat () in
  let util = Device.utilization_since env.device busy0 ~window:w.measure in
  Option.iter Lb.Probe.Per_worker.stop env.prober;
  drive env.sim ~until:(w.warm + w.measure + w.drain);
  let d1 = Span.now_ns () in
  Span.on := false;
  if Option.is_some sink then Trace.uninstall ();
  let problems = check w c env.device monitor in
  let hist = Device.latency_hist env.device in
  let fp =
    {
      completed = Device.completed env.device;
      drops = Device.dropped env.device;
      resets = Device.conns_reset env.device;
      events = Sim.events_fired env.sim;
      p50_ms = Stats.Histogram.percentile hist 50.0 /. 1e6;
      p99_ms = Stats.Histogram.percentile hist 99.0 /. 1e6;
      util = Array.fold_left ( +. ) 0.0 util /. float_of_int (Array.length util);
    }
  in
  {
    setup_ns;
    wall_ns = d1 - d0;
    measured_ns = m1 - m0;
    measured_completed = c.completed_measured;
    completed = c.completed;
    issued = c.issued;
    failed = (if problems = [] then c.dropped + c.reset else c.issued);
    problems;
    fp;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    top_heap_words = g1.Gc.top_heap_words;
    counts;
    observe_ns = !observe_ns;
    observe_calls = !observe_calls;
  }

(* A set-up with nothing driven afterwards, for extra [setup_s]
   samples. *)
let setup_only (w : workload) ~seed =
  Gc.compact ();
  let monitor = if w.chaos then Some (Monitor.create (monitor_config w)) else None in
  let sink =
    Option.map (fun m -> { Trace.write = Monitor.observe m; close = ignore }) monitor
  in
  let t0 = Span.now_ns () in
  let env = setup w ~seed ~sink in
  let dt = Span.now_ns () - t0 in
  if Option.is_some sink then Trace.uninstall ();
  Option.iter Lb.Probe.Per_worker.stop env.prober;
  dt

(* ------------------------------------------------------------------ *)
(* Statistics and output                                                *)

let quantile l p = Stats.Summary.percentile (Array.of_list l) p
let median l = quantile l 50.0

(* [host_rps] is the rate that nine reps in ten reach or beat.  On a
   shared host the per-rep rates sit on a floor with sporadic bursts of
   faster reps, which come and go with the load of other tenants; the
   median and the upper quantiles move with the bursts, while a low
   quantile tracks the floor (README.md, "Noise on this machine"). *)
let host_rps_quantile = 10.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    let kb = scan () in
    close_in ic;
    kb

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric value"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

(* Run reps until the deadline (at least [min_reps]); fold the
   fingerprint check into the reps' problem lists. *)
let collect ~seconds ~min_reps f =
  let deadline = Span.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc n =
    if n >= min_reps && Span.now_ns () >= deadline then List.rev acc
    else go (f n :: acc) (n + 1)
  in
  go [] 0

let same_fingerprint reference (r : rep) =
  if r.fp = reference then r
  else
    {
      r with
      problems =
        Printf.sprintf "fingerprint differs from the first rep: %s" (pp_fingerprint r.fp)
        :: r.problems;
      failed = r.issued;
    }

let report_problems reps =
  List.iter
    (fun r -> List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) r.problems)
    reps

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics                                        *)

let min_setup_samples = 15

let end_to_end (w : workload) ~seed ~seconds =
  let first = ref None in
  let reps =
    collect ~seconds ~min_reps:3 (fun _ ->
        let r = run_rep w ~seed ~pass:E2e in
        match !first with
        | None ->
          first := Some r.fp;
          r
        | Some fp -> same_fingerprint fp r)
  in
  let setups =
    List.map (fun r -> fi r.setup_ns) reps
    @ List.init
        (max 0 (min_setup_samples - List.length reps))
        (fun _ -> fi (setup_only w ~seed))
  in
  let rps =
    List.map (fun r -> fi r.measured_completed /. (fi r.measured_ns /. 1e9)) reps
  in
  let r0 = List.hd reps in
  Printf.printf "fingerprint %s seed=%d %s\n" w.name seed (pp_fingerprint r0.fp);
  Printf.printf
    "reps=%d measured_requests_per_rep=%d host_rps_reps=[%s] setup_samples=%d\n"
    (List.length reps) r0.measured_completed
    (String.concat " " (List.map (Printf.sprintf "%.0f") rps))
    (List.length setups);
  report_problems reps;
  let correct = List.for_all (fun r -> r.problems = []) reps in
  let attempted = List.fold_left (fun a r -> a + r.issued) 0 reps in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 reps in
  print_result ~correct ~attempted ~failed
    [
      ("host_rps", "req/s", quantile rps host_rps_quantile);
      ("setup_s", "s", median setups /. 1e9);
      ("peak_rss_mb", "MB", fi (vm_hwm_kb ()) /. 1024.0);
    ]

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics                                         *)

type round = {
  e2e : rep;
  bare : rep;
  spans : rep;
  span_summary : Span.summary;
  counting : rep;
  observing : rep;
}

let spans_dir = ".perfbench"

let traced (w : workload) ~seed ~seconds =
  let first = ref None in
  let fingerprinted r =
    match !first with
    | None ->
      first := Some r.fp;
      r
    | Some fp -> same_fingerprint fp r
  in
  let rounds =
    collect ~seconds ~min_reps:2 (fun _ ->
        let spans = fingerprinted (run_rep w ~seed ~pass:Spans) in
        let span_summary = Span.summarize () in
        (* The untraced and counting passes run back to back, so that
           the host's drift between them stays small. *)
        let e2e = fingerprinted (run_rep w ~seed ~pass:E2e) in
        let bare = if w.chaos then fingerprinted (run_rep w ~seed ~pass:Bare) else e2e in
        let counting = fingerprinted (run_rep w ~seed ~pass:Counting) in
        let observing = fingerprinted (run_rep w ~seed ~pass:Observing) in
        { e2e; bare; spans; span_summary; counting; observing })
  in
  (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
  let spans_file = Filename.concat spans_dir (Printf.sprintf "spans-%s.tsv" w.name) in
  Span.write_tsv spans_file;
  let r0 = List.hd rounds in
  (* Exact counts must repeat in every round. *)
  let count_problems =
    List.concat_map
      (fun r ->
        if r.counting.counts = r0.counting.counts then []
        else [ "trace counts differ between rounds" ])
      rounds
  in
  let reps =
    List.concat_map
      (fun r ->
        if w.chaos then [ r.spans; r.e2e; r.bare; r.counting; r.observing ]
        else [ r.spans; r.e2e; r.counting; r.observing ])
      rounds
  in
  let med f = median (List.map f rounds) in
  let sp r = r.span_summary in
  let self r k = fi (sp r).Span.self_ns.(k) in
  let per_call k = med (fun r -> ratio (self r k) (fi (sp r).Span.calls.(k))) in
  let words_per_call k =
    med (fun r -> ratio (fi (sp r).Span.self_words.(k)) (fi (sp r).Span.calls.(k)))
  in
  let share k = med (fun r -> 100.0 *. ratio (self r k) (fi r.spans.wall_ns)) in
  let p99 k =
    med (fun r ->
        let a = (sp r).Span.self_of.(k) in
        if a = [||] then 0.0 else Stats.Summary.percentile a 99.0)
  in
  let spans_per_req f = med (fun r -> ratio (f r) (fi r.spans.completed)) in
  let unaccounted r =
    100.0 *. ratio (fi (r.spans.wall_ns - (sp r).Span.top_ns)) (fi r.spans.wall_ns)
  in
  let c = r0.counting in
  let cnt i = fi c.counts.(i) in
  let per_req i = ratio (cnt i) (fi c.completed) in
  let syns = cnt c_rp_prog +. cnt c_rp_hash +. cnt c_rp_drop in
  let trace_extra r = fi (r.counting.wall_ns - r.bare.wall_ns) in
  let observe_ns r = fi r.observing.observe_ns in
  let gc f = ratio (f r0.e2e) (fi r0.e2e.measured_completed) in
  let metrics =
    [
      ("lb.connect_ns", "ns", per_call Span.connect);
      ("lb.connect_ns_p99", "ns", p99 Span.connect);
      ("lb.connect_words", "words", words_per_call Span.connect);
      ("lb.connect_share", "%", share Span.connect);
      ("lb.send_ns", "ns", per_call Span.send);
      ("lb.send_ns_p99", "ns", p99 Span.send);
      ("lb.send_words", "words", words_per_call Span.send);
      ("lb.send_share", "%", share Span.send);
      ("lb.close_ns", "ns", per_call Span.close);
      ("lb.close_words", "words", words_per_call Span.close);
      ("engine.run_ns_per_req", "ns/req", spans_per_req (fun r -> self r Span.slice));
      ("engine.run_share", "%", share Span.slice);
      ( "engine.ns_per_event",
        "ns",
        med (fun r -> ratio (self r Span.slice) (fi r.spans.fp.events)) );
      ("engine.events_per_req", "events/req", ratio (fi c.fp.events) (fi c.completed));
      ( "engine.words_per_req",
        "words/req",
        spans_per_req (fun r -> fi (sp r).Span.self_words.(Span.slice)) );
      ("client.ns_per_req", "ns/req", spans_per_req (fun r -> self r Span.client));
      ("spans.unaccounted_share", "%", med unaccounted);
      ("hermes.sched_passes_per_req", "1/req", per_req c_sched_result);
      ("hermes.filter_stages_per_req", "1/req", per_req c_sched_filter);
      ("hermes.map_updates_per_req", "1/req", per_req c_map_update);
      ("hermes.wst_writes_per_req", "1/req", per_req c_wst_write);
      ("kernel.prog_runs_per_syn", "1/syn", ratio (cnt c_prog_run) syns);
      ( "kernel.hash_fallback_share",
        "%",
        100.0 *. ratio (cnt c_rp_hash) (cnt c_rp_prog +. cnt c_rp_hash) );
      ("kernel.epoll_batches_per_req", "1/req", per_req c_epoll_batches);
      ( "kernel.epoll_events_per_batch",
        "events",
        ratio (cnt c_epoll_events) (cnt c_epoll_batches) );
      ("kernel.rp_drops", "count", cnt c_rp_drop);
      ("lb.splice_redirects_per_req", "1/req", per_req c_splice_redirects);
      ( "lb.splice_copied_share",
        "%",
        100.0 *. ratio (cnt c_splice_copied) (cnt c_splice_bytes) );
      ("trace.records_per_req", "1/req", per_req c_records);
      ( "trace.ns_per_record",
        "ns",
        med (fun r -> ratio (trace_extra r) (cnt c_records)) );
      ( "trace.overhead_share",
        "%",
        med (fun r -> 100.0 *. ratio (trace_extra r) (fi r.counting.wall_ns)) );
      ( "faults.observe_ns",
        "ns",
        med (fun r -> ratio (observe_ns r) (fi r.observing.observe_calls)) );
      ( "faults.observe_share",
        "%",
        med (fun r -> 100.0 *. ratio (observe_ns r) (fi r.observing.wall_ns)) );
      ("faults.injections", "count", cnt c_fault_inject);
      ("gc.minor_words_per_req", "words/req", gc (fun r -> r.minor_words));
      ("gc.promoted_words_per_req", "words/req", gc (fun r -> r.promoted_words));
      ("gc.major_collections", "count", fi r0.e2e.major_collections);
      ( "gc.top_heap_mb",
        "MB",
        fi (r0.e2e.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
    ]
  in
  Printf.printf "fingerprint %s seed=%d %s\n" w.name seed (pp_fingerprint r0.e2e.fp);
  Printf.printf "rounds=%d spans=%s (last round)\n" (List.length rounds) spans_file;
  Printf.printf "attribution of the spans pass (median wall %.1f ms):\n"
    (med (fun r -> fi r.spans.wall_ns /. 1e6));
  Array.iteri
    (fun k name ->
      Printf.printf "  %-14s self %6.2f%%  calls %8d\n" name (share k)
        (sp r0).Span.calls.(k))
    Span.kind_name;
  Printf.printf "  %-14s      %6.2f%%\n" "unaccounted" (med unaccounted);
  report_problems reps;
  List.iter (Printf.printf "CHECK FAILED: %s\n") count_problems;
  let correct = count_problems = [] && List.for_all (fun r -> r.problems = []) reps in
  let attempted = List.fold_left (fun a r -> a + r.issued) 0 reps in
  let failed =
    if count_problems = [] then List.fold_left (fun a r -> a + r.failed) 0 reps
    else attempted
  in
  print_result ~correct ~attempted ~failed metrics

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let variant = ref "default" and scale = ref 1 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workload_names);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " wall seconds to keep repeating");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ( "--variant",
        Arg.Set_string variant,
        " default|kernel_jit|reuseport (Hermes workloads)" );
      ("--measure-scale", Arg.Set_int scale, " multiply the measured phase");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hostbench --workload NAME --seed N --seconds S --trace 0|1";
  let variant =
    match variant_of_string !variant with
    | Some v -> v
    | None ->
      prerr_endline ("unknown --variant " ^ !variant);
      exit 2
  in
  match make_workload !workload ~variant ~scale:(max 1 !scale) with
  | None ->
    prerr_endline ("unknown --workload " ^ !workload);
    exit 2
  | Some w -> (
    match !trace with
    | 0 -> end_to_end w ~seed:!seed ~seconds:!seconds
    | 1 -> traced w ~seed:!seed ~seconds:!seconds
    | _ ->
      prerr_endline "--trace must be 0 or 1";
      exit 2)
