(* Command-line front end: list and run the paper-reproduction
   experiments, one at a time ([run ID]) or the whole battery ([all]). *)

open Cmdliner

let quick_flag =
  let doc = "Shrink run lengths for a fast smoke pass." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let trace_arg =
  let doc =
    "Record every scheduling decision (wakeups, filter cascade, bitmap \
     pushes, reuseport picks, WST writes) to $(docv): JSON lines by \
     default, the compact binary format when $(docv) ends in $(b,.bin) \
     (decode with $(b,trace-dump))."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* The one trace-file writer: [f] gets the [--trace] file's sink, if
   any, and must close it. *)
let with_trace_file file f =
  match Option.map Trace.file_sink file with
  | exception Sys_error msg -> `Error (false, "cannot open trace file: " ^ msg)
  | sink -> f sink

let with_trace file f =
  with_trace_file file (fun sink ->
      (match sink with None -> f () | Some s -> Trace.with_sink s f);
      `Ok ())

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-12s %s\n" e.Experiments.Registry.id
          e.Experiments.Registry.title)
      Experiments.Registry.all
  in
  let doc = "List the available experiments (one per paper table/figure)." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let id =
    let doc = "Experiment id (see $(b,list))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let run quick trace id =
    match Experiments.Registry.find id with
    | Some e -> with_trace trace (fun () -> e.Experiments.Registry.run ~quick ())
    | None ->
      `Error
        ( false,
          Printf.sprintf "unknown experiment %S; known: %s" id
            (String.concat ", " (Experiments.Registry.ids ())) )
  in
  let doc = "Run one experiment and print its table/series." in
  Cmd.v (Cmd.info "run" ~doc) Term.(ret (const run $ quick_flag $ trace_arg $ id))

let disasm_cmd =
  let workers =
    let doc = "Workers in the (single) group." in
    Arg.(value & opt int 8 & info [ "workers" ] ~doc)
  in
  let run workers =
    if workers < 1 || workers > 64 then
      `Error (false, "workers must be in 1..64")
    else begin
      let m_sel = Kernel.Ebpf_maps.Array_map.create ~name:"M_Sel" ~size:1 in
      let m_socket =
        Kernel.Ebpf_maps.Sockarray.create ~name:"M_socket" ~size:workers
      in
      let prog = Hermes.Dispatch.single_group ~m_sel ~m_socket ~min_selected:2 in
      match Kernel.Verifier.compile_and_verify prog with
      | Error e -> `Error (false, Kernel.Verifier.error_to_string e)
      | Ok verified ->
        Printf.printf
          "; Algo 2 dispatch program for %d workers, compiled and verified\n\
           ; (%d instructions; popcount and rank-select inlined as SWAR)\n"
          workers
          (Kernel.Ebpf_vm.insn_count verified);
        (match Kernel.Ebpf_vm.compile prog with
        | Ok code -> print_string (Kernel.Ebpf_vm.disassemble code)
        | Error msg -> prerr_endline msg);
        `Ok ()
    end
  in
  let doc =
    "Disassemble the verified eBPF bytecode of the Algo 2 dispatch program."
  in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(ret (const run $ workers))

(* Verifier lint: every dispatch program the simulator can ship must
   pass the abstract interpreter with a complete certificate — Algo 2
   compiles loop-free, so any backward edge or residual runtime check
   is a regression. *)
let verify_cmd =
  let dump_flag =
    let doc = "Also dump the per-instruction abstract states." in
    Arg.(value & flag & info [ "dump" ] ~doc)
  in
  let plan_arg =
    let doc =
      "Also lint this fault-plan file (unknown worker ids, bad durations); \
       the built-in chaos plan is always linted."
    in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let plan_workers_arg =
    let doc = "Worker count the fault plans are linted against." in
    Arg.(
      value
      & opt int Faults.Chaos.default_config.Faults.Chaos.workers
      & info [ "plan-workers" ] ~docv:"N" ~doc)
  in
  let presets () =
    let single workers =
      let m_sel =
        Kernel.Ebpf_maps.Array_map.create ~name:"M_Sel" ~size:1
      in
      let m_socket =
        Kernel.Ebpf_maps.Sockarray.create ~name:"M_socket" ~size:workers
      in
      ( Printf.sprintf "single_w%d" workers,
        Hermes.Dispatch.single_group ~m_sel ~m_socket ~min_selected:2 )
    in
    let two_level workers group_size mode =
      let g = Hermes.Groups.create ~workers ~group_size ~mode in
      let m_socket =
        Kernel.Ebpf_maps.Sockarray.create ~name:"M_socket" ~size:workers
      in
      ( Printf.sprintf "two_level_w%d_g%d_%s" workers group_size
          (match mode with
          | Hermes.Groups.By_flow_hash -> "hash"
          | Hermes.Groups.By_dst_port -> "port"),
        Hermes.Groups.make_prog g ~m_socket ~min_selected:2 )
    in
    let splice slots copy =
      let m_splice =
        Kernel.Ebpf_maps.Sockmap.create ~name:"M_splice" ~size:slots
      in
      ( Printf.sprintf "splice_s%d_c%d" slots copy,
        Hermes.Dispatch.splice_prog ~m_splice ~copy () )
    in
    List.map single [ 4; 8; 16; 32; 64 ]
    @ [
        two_level 8 4 Hermes.Groups.By_flow_hash;
        two_level 128 64 Hermes.Groups.By_flow_hash;
        two_level 128 64 Hermes.Groups.By_dst_port;
        splice 4096 0;
        splice 4096 256;
      ]
  in
  let src_root_arg =
    let doc =
      "Repo root for the concurrency source lint (raw Atomic/Mutex/\
       Condition uses in lib/engine and lib/trace outside the \
       Mcheck_shim functor convention); skipped with a warning when the \
       sources are not present (installed binary)."
    in
    Arg.(value & opt string "." & info [ "src-root" ] ~docv:"DIR" ~doc)
  in
  let run dump plan_file plan_workers src_root =
    let failures = ref [] in
    Printf.printf "%-24s %6s %8s %8s %7s %9s  %s\n" "program" "insns"
      "backjmp" "visited" "proved" "residual" "verdict";
    List.iter
      (fun (name, prog) ->
        match Kernel.Ebpf_vm.compile prog with
        | Error msg ->
          Printf.printf "%-24s %s\n" name ("compile failed: " ^ msg);
          failures := name :: !failures
        | Ok code -> (
          match Kernel.Verifier.verify ~name ~collect_states:dump code with
          | Error e ->
            Printf.printf "%-24s %6d %8s %8s %7s %9s  rejected: %s\n" name
              (Array.length code) "-" "-" "-" "-"
              (Kernel.Verifier.error_to_string e);
            failures := name :: !failures
          | Ok (_vm, r) ->
            let clean = r.Kernel.Verifier.residual = 0
                        && r.Kernel.Verifier.backward_edges = 0 in
            Printf.printf "%-24s %6d %8d %8d %7d %9d  %s\n" name
              r.Kernel.Verifier.insns r.Kernel.Verifier.backward_edges
              r.Kernel.Verifier.visited r.Kernel.Verifier.proved
              r.Kernel.Verifier.residual
              (if clean then "ok" else "UNPROVEN");
            if not clean then failures := name :: !failures;
            if dump then (
              Printf.printf "; abstract states for %s\n" name;
              Array.iteri
                (fun pc st -> Printf.printf ";   %4d: %s\n" pc st)
                r.Kernel.Verifier.states)))
      (presets ());
    let plans =
      ("builtin chaos plan", Ok Faults.Chaos.default_plan)
      ::
      (match plan_file with
      | None -> []
      | Some path -> [ (path, Faults.Plan.load path) ])
    in
    List.iter
      (fun (name, plan) ->
        match plan with
        | Error e ->
          Printf.printf "%-24s plan parse failed: %s\n" name e;
          failures := name :: !failures
        | Ok plan -> (
          match Faults.Plan.lint ~workers:plan_workers plan with
          | Ok () ->
            Printf.printf "%-24s plan ok (%d entries, %d workers)\n" name
              (List.length plan) plan_workers
          | Error problems ->
            List.iter
              (fun p -> Printf.printf "%-24s plan lint: %s\n" name p)
              problems;
            failures := name :: !failures))
      plans;
    (match Mcheck.Src_lint.scan_tree ~root:src_root with
    | Error msg ->
      Printf.printf "%-24s skipped: %s\n" "concurrency lint" msg
    | Ok [] ->
      Printf.printf "%-24s ok (lib/engine and lib/trace are shim-clean)\n"
        "concurrency lint"
    | Ok violations ->
      List.iter
        (fun (v : Mcheck.Src_lint.violation) ->
          Printf.printf
            "%-24s %s:%d raw %s (route it through Mcheck_shim.PRIM)\n\
            \                           | %s\n"
            "concurrency lint" v.file v.line v.token v.context)
        violations;
      failures := "concurrency lint" :: !failures);
    match !failures with
    | [] -> `Ok ()
    | fs ->
      `Error
        ( false,
          Printf.sprintf "verifier lint failed for: %s"
            (String.concat ", " (List.rev fs)) )
  in
  let doc =
    "Verify every shipped dispatch program with the abstract \
     interpreter, lint fault plans against the device shape, and lint \
     the engine/trace sources for concurrency primitives that bypass \
     the model-check shim; fail unless each program is accepted \
     loop-free with a complete certificate (zero residual runtime \
     checks), each plan is well-formed, and the sources are \
     shim-clean."
  in
  Cmd.v
    (Cmd.info "verify" ~doc)
    Term.(ret (const run $ dump_flag $ plan_arg $ plan_workers_arg $ src_root_arg))

let all_cmd =
  let run quick trace =
    with_trace trace (fun () -> Experiments.Registry.run_all ~quick ())
  in
  let doc = "Run every experiment in paper order." in
  Cmd.v (Cmd.info "all" ~doc) Term.(ret (const run $ quick_flag $ trace_arg))

let chaos_cmd =
  let plan_arg =
    let doc =
      "Fault plan file (one injection per line: $(b,at <time> <kind> \
       key=value...)); the built-in all-classes plan when omitted."
    in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let seed_arg =
    let doc = "Run seed; same plan + same seed replays byte-identically." in
    Arg.(
      value
      & opt int Faults.Chaos.default_config.Faults.Chaos.seed
      & info [ "seed" ] ~docv:"N" ~doc)
  in
  let mode_arg =
    let doc =
      Printf.sprintf "Dispatch mode: $(docv) is one of %s, or $(b,all) for the sweep."
        (String.concat ", " Hermes.Config.Mode.names)
    in
    Arg.(value & opt string "hermes" & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let workers_arg =
    let doc = "Worker count." in
    Arg.(
      value
      & opt int Faults.Chaos.default_config.Faults.Chaos.workers
      & info [ "workers" ] ~docv:"N" ~doc)
  in
  let show_plan_flag =
    let doc = "Print the effective plan and exit without running." in
    Arg.(value & flag & info [ "show-plan" ] ~doc)
  in
  let parse_mode m =
    if String.equal m "all" then
      (* The sweep skips wake-all: its thundering herd makes chaos runs
         pathologically slow without telling us anything new. *)
      Ok
        (List.filter_map
           (function
             | Hermes.Config.Mode.Wake_all -> None
             | md -> Some (Lb.Device.of_mode md))
           Hermes.Config.Mode.all)
    else
      match Hermes.Config.Mode.of_string m with
      | Some md -> Ok [ Lb.Device.of_mode md ]
      | None -> Error (Printf.sprintf "unknown mode %S" m)
  in
  let run plan_file seed mode workers show_plan trace =
    let plan =
      match plan_file with
      | None -> Ok Faults.Chaos.default_plan
      | Some path -> Faults.Plan.load path
    in
    match (plan, parse_mode mode) with
    | Error e, _ -> `Error (false, "bad plan: " ^ e)
    | _, Error e -> `Error (false, e)
    | Ok plan, Ok modes -> (
      if show_plan then begin
        print_string (Faults.Plan.to_string plan);
        `Ok ()
      end
      else
        match Faults.Plan.lint ~workers plan with
        | Error problems ->
          `Error (false, "plan lint: " ^ String.concat "; " problems)
        | Ok () ->
          with_trace_file trace @@ fun sink ->
          (* Each run's own stream, [seq] from 0, exactly as its
             monitors see it. *)
          let capture = Option.map (fun s -> s.Trace.write) sink in
          let failures = ref [] in
          List.iter
            (fun mode ->
              let config =
                {
                  Faults.Chaos.default_config with
                  Faults.Chaos.mode;
                  workers;
                  seed;
                }
              in
              let outcome = Faults.Chaos.run ?capture ~plan config in
              Faults.Chaos.print_outcome outcome;
              if outcome.Faults.Chaos.monitor.Faults.Monitor.violations <> []
              then failures := outcome.Faults.Chaos.label :: !failures)
            modes;
          Option.iter (fun s -> s.Trace.close ()) sink;
          (match !failures with
          | [] -> `Ok ()
          | fs ->
            `Error
              ( false,
                "invariant violations under: "
                ^ String.concat ", " (List.rev fs) )))
  in
  let doc =
    "Replay a fault plan against one device with the invariant monitors \
     attached; non-zero exit if any invariant is violated."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      ret
        (const run $ plan_arg $ seed_arg $ mode_arg $ workers_arg
       $ show_plan_flag $ trace_arg))

(* Sharded cluster runner: the CLI face of Cluster.Lb_cluster.  The
   printed summary and the JSONL trace depend only on the logical
   decomposition (devices, seed, lookahead, plan), never on --shards —
   CI replays the same seed at different shard counts and diffs the
   trace files byte-for-byte. *)
let cluster_cmd =
  let devices_arg =
    let doc = "Member devices behind the VIP (\"8 LBs in total\", §6.1)." in
    Arg.(value & opt int 8 & info [ "devices" ] ~docv:"N" ~doc)
  in
  let workers_arg =
    let doc = "Workers per member device." in
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc =
      "Executing domain count.  Changes wall-clock only; traces and \
       counters are byte-identical for every value."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Run seed; same seed replays byte-identically." in
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let duration_arg =
    let doc = "Virtual run length in milliseconds." in
    Arg.(value & opt int 200 & info [ "duration-ms" ] ~docv:"MS" ~doc)
  in
  let conns_arg =
    let doc =
      "Connections to open, spread uniformly over the first 80% of the \
       run."
    in
    Arg.(value & opt int 400 & info [ "conns" ] ~docv:"N" ~doc)
  in
  let reqs_arg =
    let doc = "Requests per connection (1 ms service cost each)." in
    Arg.(value & opt int 2 & info [ "reqs" ] ~docv:"N" ~doc)
  in
  let lookahead_arg =
    let doc =
      "Cross-process message latency / synchronization round width in \
       microseconds (default: the runtime's cross-shard latency).  A \
       model parameter: changing it changes the trace."
    in
    Arg.(value & opt (some int) None & info [ "lookahead-us" ] ~docv:"US" ~doc)
  in
  let mode_arg =
    let doc =
      Printf.sprintf "Dispatch mode for every member: one of %s."
        (String.concat ", " Hermes.Config.Mode.names)
    in
    Arg.(value & opt string "reuseport" & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let plan_arg =
    let doc =
      "Fault plan file, armed on every member's own process (entries \
       must sit beyond one lookahead so arming never schedules into a \
       member's past)."
    in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let parse_single_mode m =
    match Hermes.Config.Mode.of_string m with
    | Some md -> Ok (Lb.Device.of_mode md)
    | None -> Error (Printf.sprintf "unknown mode %S" m)
  in
  let run devices workers shards seed duration_ms conns reqs lookahead_us
      mode_name plan_file trace =
    if devices < 1 then `Error (false, "devices must be >= 1")
    else if shards < 1 then `Error (false, "shards must be >= 1")
    else if duration_ms < 1 then `Error (false, "duration-ms must be >= 1")
    else
      let plan =
        match plan_file with
        | None -> Ok None
        | Some path -> (
          match Faults.Plan.load path with
          | Error e -> Error ("bad plan: " ^ e)
          | Ok p -> (
            match Faults.Plan.lint ~workers p with
            | Error problems ->
              Error ("plan lint: " ^ String.concat "; " problems)
            | Ok () -> Ok (Some p)))
      in
      match (parse_single_mode mode_name, plan) with
      | Error e, _ | _, Error e -> `Error (false, e)
      | Ok mode, Ok plan ->
        with_trace_file trace @@ fun sink ->
        let module ST = Engine.Sim_time in
        let sim = Engine.Sim.create () in
        let rng = Engine.Rng.create seed in
        let tenants = Netsim.Tenant.population ~n:4 ~base_dport:20000 in
        let cluster =
          Cluster.Lb_cluster.create ~sim ~rng ~tenants ~devices ~mode ~workers
            ~shards
            ?lookahead:(Option.map ST.us lookahead_us)
            ?trace_capacity:(Option.map (fun _ -> 262144) sink)
            ()
        in
        Fun.protect
          ~finally:(fun () -> Cluster.Lb_cluster.shutdown cluster)
          (fun () ->
            (match plan with
            | None -> ()
            | Some p ->
              List.iter
                (fun (slot, _) ->
                  Cluster.Lb_cluster.run_on cluster ~slot (fun dev ->
                      Faults.Inject.arm ~device:dev ~plan:p))
                (Cluster.Lb_cluster.devices cluster));
            let established = ref 0 and closed = ref 0 and resets = ref 0 in
            let failed = ref 0 and req_done = ref 0 in
            let window_us = duration_ms * 1000 * 4 / 5 in
            for i = 0 to conns - 1 do
              let at = ST.us (i * window_us / max 1 conns) in
              let tenant = i mod Array.length tenants in
              ignore
                (Engine.Sim.schedule sim ~at (fun () ->
                     let open Cluster.Lb_cluster in
                     let pending = ref reqs in
                     connect cluster ~tenant
                       ~events:
                         {
                           established =
                             (fun h ->
                               incr established;
                               for _ = 1 to reqs do
                                 send h
                                   (Lb.Request.make ~id:(fresh_id cluster)
                                      ~op:Lb.Request.Plain_proxy ~size:64
                                      ~cost:(ST.ms 1) ~tenant_id:tenant)
                               done);
                           request_done =
                             (fun h _ ->
                               incr req_done;
                               decr pending;
                               if !pending = 0 then close h);
                           closed = (fun _ -> incr closed);
                           reset = (fun _ -> incr resets);
                           dispatch_failed = (fun () -> incr failed);
                         }))
            done;
            let t0 = Unix.gettimeofday () in
            Engine.Sim.run_until sim ~limit:(ST.ms duration_ms);
            let wall = Unix.gettimeofday () -. t0 in
            let records = Cluster.Lb_cluster.merged_trace cluster in
            let drops = Cluster.Lb_cluster.trace_drops cluster in
            Option.iter
              (fun s ->
                List.iter s.Trace.write records;
                s.Trace.close ())
              sink;
            (* Everything on stdout is deterministic in the logical
               decomposition; wall-clock goes to stderr so shard-count
               sweeps can diff stdout too. *)
            Printf.printf
              "cluster devices=%d workers=%d mode=%s seed=%d lookahead=%s \
               duration=%dms\n"
              devices workers mode_name seed
              (ST.to_string (Cluster.Lb_cluster.lookahead cluster))
              duration_ms;
            Printf.printf
              "conns established=%d closed=%d resets=%d dispatch_failed=%d\n"
              !established !closed !resets !failed;
            Printf.printf
              "requests done=%d device_completed=%d device_dropped=%d\n"
              !req_done
              (Cluster.Lb_cluster.completed cluster)
              (Cluster.Lb_cluster.dropped cluster);
            Printf.printf "trace records=%d\n" (List.length records);
            Printf.eprintf "shards=%d wall=%.3fs\n%!" shards wall;
            if drops > 0 then
              `Error
                ( false,
                  Printf.sprintf
                    "trace ring overflowed (%d drops); the trace file is \
                     truncated"
                    drops )
            else `Ok ())
  in
  let doc =
    "Run a sharded multi-device cluster simulation; the merged trace \
     and the stdout summary are byte-identical for every $(b,--shards) \
     value."
  in
  Cmd.v (Cmd.info "cluster" ~doc)
    Term.(
      ret
        (const run $ devices_arg $ workers_arg $ shards_arg $ seed_arg
       $ duration_arg $ conns_arg $ reqs_arg $ lookahead_arg $ mode_arg
       $ plan_arg $ trace_arg))

(* Systematic concurrency checking of the engine internals: explore
   every non-equivalent interleaving of the Task_deque / Coordinator
   pool / Trace publication harnesses under the DPOR scheduler. *)
let mcheck_cmd =
  let scenario_arg =
    let doc =
      "Run only the named scenario (repeatable); all otherwise.  See the \
       run output for names."
    in
    Arg.(value & opt_all string [] & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let seeded_flag =
    let doc =
      "Also run the seeded-bug scenarios (historical orderings \
       deliberately re-introduced behind a flag); those $(b,pass) only \
       when the checker finds their counterexample, gating the checker \
       itself against regressions."
    in
    Arg.(value & flag & info [ "seeded" ] ~doc)
  in
  let check_flag =
    let doc =
      "Gate mode: non-zero exit if any clean scenario has a \
       counterexample, an undocumented race or an exhausted budget, or \
       any seeded scenario fails to produce its counterexample."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let max_interleavings_arg =
    let doc =
      "Per-scenario exploration budget (executions + sleep-set prunes); \
       the CI time-box."
    in
    Arg.(
      value
      & opt int Mcheck.Model.default_config.Mcheck.Model.max_interleavings
      & info [ "max-interleavings" ] ~docv:"N" ~doc)
  in
  let max_steps_arg =
    let doc = "Per-interleaving step budget (livelock cut-off)." in
    Arg.(
      value
      & opt int Mcheck.Model.default_config.Mcheck.Model.max_steps
      & info [ "max-steps" ] ~docv:"N" ~doc)
  in
  let preemption_bound_arg =
    let doc =
      "Skip branches needing more than $(docv) preemptions (unbounded \
       when omitted); a bounded pass is reported in the output."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "preemption-bound" ] ~docv:"K" ~doc)
  in
  let no_dpor_flag =
    let doc =
      "Disable the partial-order reduction (exhaustive DFS) — only for \
       debugging the explorer."
    in
    Arg.(value & flag & info [ "no-dpor" ] ~doc)
  in
  let json_arg =
    let doc =
      "Write per-scenario explored/pruned counts and verdicts to $(docv) \
       (the CI artifact)."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run scenarios seeded check max_interleavings max_steps preemption_bound
      no_dpor json_file =
    let config =
      {
        Mcheck.Model.max_interleavings;
        max_steps;
        preemption_bound;
        dpor = not no_dpor;
      }
    in
    let selected =
      match scenarios with
      | [] ->
        List.filter
          (fun (s : Mcheck.Scenarios.t) -> seeded || not s.bug)
          Mcheck.Scenarios.all
      | names -> (
        match
          List.filter_map
            (fun n ->
              match Mcheck.Scenarios.find n with
              | Some s -> Some (Ok s)
              | None -> Some (Error n))
            names
          |> List.partition_map (function
               | Ok s -> Either.Left s
               | Error n -> Either.Right n)
        with
        | sel, [] -> sel
        | _, unknown ->
          Printf.eprintf "unknown scenario(s): %s; known: %s\n"
            (String.concat ", " unknown)
            (String.concat ", "
               (List.map
                  (fun (s : Mcheck.Scenarios.t) -> s.name)
                  Mcheck.Scenarios.all));
          [])
    in
    if selected = [] then `Error (false, "no scenarios selected")
    else begin
      Printf.printf "%-24s %-6s %9s %8s %6s %6s  %s\n" "scenario" "kind"
        "explored" "pruned" "depth" "races" "verdict";
      let results =
        List.map
          (fun (sc : Mcheck.Scenarios.t) ->
            let t0 = Unix.gettimeofday () in
            (* the CLI budget flags override the scenario's own config *)
            let o = sc.run config in
            let wall = Unix.gettimeofday () -. t0 in
            let pass, reason = Mcheck.Scenarios.evaluate sc o in
            Printf.printf "%-24s %-6s %9d %8d %6d %6d  %s — %s (%.2fs)\n"
              sc.name
              (if sc.bug then "seeded" else "clean")
              o.executions o.prunes o.max_depth (List.length o.races)
              (if pass then "PASS" else "FAIL")
              reason wall;
            List.iter
              (fun (r : Mcheck.Model.race) ->
                Printf.printf "  race %-18s %s / %s%s\n" r.loc r.access_a
                  r.access_b
                  (if
                     List.exists
                       (fun p ->
                         String.length r.loc >= String.length p
                         && String.sub r.loc 0 (String.length p) = p)
                       sc.expected_races
                   then " (documented benign)"
                   else " (UNDOCUMENTED)"))
              o.races;
            (match o.counterexample with
            | Some c when (not pass) || not sc.bug ->
              Printf.printf "  counterexample (%s): %s\n" c.kind c.message;
              List.iter (fun l -> Printf.printf "    %s\n" l) c.trace
            | Some c ->
              Printf.printf "  counterexample (%s): %s (%d-step schedule)\n"
                c.kind c.message (List.length c.trace)
            | None -> ());
            (sc, o, pass, reason, wall))
          selected
      in
      (match json_file with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc "[\n";
        List.iteri
          (fun i ((sc : Mcheck.Scenarios.t), (o : Mcheck.Model.outcome), pass,
                  reason, wall) ->
            Printf.fprintf oc
              "  {\"scenario\": %s, \"seeded\": %b, \"pass\": %b, \
               \"reason\": %s, \"executions\": %d, \"pruned\": %d, \
               \"steps\": %d, \"max_depth\": %d, \"races\": %d, \
               \"counterexample\": %s, \"budget_exhausted\": %b, \
               \"bounded\": %b, \"wall_s\": %.3f}%s\n"
              (Trace.json_string sc.name) sc.bug pass (Trace.json_string reason)
              o.executions o.prunes o.steps_total o.max_depth
              (List.length o.races)
              (match o.counterexample with
              | None -> "null"
              | Some c -> Trace.json_string c.kind)
              o.budget_exhausted o.bounded wall
              (if i = List.length results - 1 then "" else ",");
            ())
          results;
        output_string oc "]\n";
        close_out oc);
      let failed =
        List.filter_map
          (fun ((sc : Mcheck.Scenarios.t), _, pass, _, _) ->
            if pass then None else Some sc.name)
          results
      in
      match failed with
      | [] -> `Ok ()
      | fs ->
        if check then
          `Error (false, "mcheck scenarios failed: " ^ String.concat ", " fs)
        else begin
          Printf.printf "(failures above; exit 0 without --check)\n";
          `Ok ()
        end
    end
  in
  let doc =
    "Model-check the engine's concurrent internals (work-stealing \
     deque, coordinator pool, trace publication): explore every \
     non-equivalent interleaving with dynamic partial-order reduction, \
     report happens-before races on non-atomic accesses, and print \
     counterexample schedules for assertion failures, deadlocks and \
     lost wakeups."
  in
  Cmd.v (Cmd.info "mcheck" ~doc)
    Term.(
      ret
        (const run $ scenario_arg $ seeded_flag $ check_flag
       $ max_interleavings_arg $ max_steps_arg $ preemption_bound_arg
       $ no_dpor_flag $ json_arg))

let trace_dump_cmd =
  let file =
    let doc = "Binary trace file (written by $(b,--trace) $(i,FILE.bin))." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let format =
    let doc = "Output format: $(b,jsonl) (one JSON object per line, identical \
               to the JSONL sink's output) or $(b,text) (the golden-trace \
               rendering)." in
    Arg.(value & opt (enum [ ("jsonl", `Jsonl); ("text", `Text) ]) `Jsonl
         & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let run file format =
    let sink =
      (match format with `Jsonl -> Trace.jsonl_sink | `Text -> Trace.text_sink) stdout
    in
    match
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () ->
          close_in ic;
          sink.Trace.close ())
        (fun () -> Trace.Binary.iter_channel ic sink.Trace.write)
    with
    | () -> `Ok ()
    | exception Sys_error msg -> `Error (false, msg)
    | exception Trace.Binary.Corrupt msg ->
      `Error (false, Printf.sprintf "corrupt trace %s: %s" file msg)
  in
  let doc =
    "Decode a compact binary trace to JSON lines or golden-trace text.  \
     The decoded stream is event-for-event identical to what the JSONL \
     sink would have written during the same run."
  in
  Cmd.v (Cmd.info "trace-dump" ~doc) Term.(ret (const run $ file $ format))

let main =
  let doc = "Hermes (SIGCOMM '25) reproduction driver" in
  let info = Cmd.info "hermes_sim" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      list_cmd;
      run_cmd;
      all_cmd;
      cluster_cmd;
      chaos_cmd;
      disasm_cmd;
      verify_cmd;
      mcheck_cmd;
      trace_dump_cmd;
    ]

let () = exit (Cmd.eval main)
