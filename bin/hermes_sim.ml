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

(* An integer that must lie in [lo, hi]: anything else is a
   command-line error (exit 124), never an escaping exception. *)
let int_in ?(lo = min_int) ?(hi = max_int) () =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | Some _ when hi = max_int -> Error (`Msg (Printf.sprintf "%s must be >= %d" s lo))
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be in %d..%d" s lo hi))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Workers per device: 1..64, the width of the WST and of a reuseport
   group's worker bitmap. *)
let workers_arg ~default ~doc =
  Arg.(value & opt (int_in ~lo:1 ~hi:64 ()) default & info [ "workers" ] ~docv:"N" ~doc)

(* The one trace-file writer: [f] gets the [--trace] file's sink, if
   any, and must close it. *)
let with_trace_file file f =
  match Option.map Trace.file_sink file with
  | exception Sys_error msg -> `Error (false, "cannot open trace file: " ^ msg)
  | sink -> f sink

(* Run [f] recording into the [--trace] file, if any; [count] counts
   the records written. *)
let with_trace ?(count = ref 0) file f =
  with_trace_file file (fun sink ->
      (match sink with
      | None -> f ()
      | Some s -> Trace.with_sink { s with write = (fun r -> incr count; s.write r) } f);
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
  let workers = workers_arg ~default:8 ~doc:"Workers in the (single) group." in
  let run workers =
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
      "Repo root for the source lints (any Atomic/Mutex/Condition/Domain \
       use in lib/engine and lib/trace, and lib/ interface vals no \
       other module names); \
       skipped with a warning when the sources are not present \
       (installed binary)."
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
    (match Lint.Src_lint.scan_tree ~root:src_root with
    | Error msg ->
      Printf.printf "%-24s skipped: %s\n" "concurrency lint" msg
    | Ok [] ->
      Printf.printf
        "%-24s ok (no concurrency primitive in lib/engine or lib/trace)\n"
        "concurrency lint"
    | Ok violations ->
      List.iter
        (fun (v : Lint.Src_lint.violation) ->
          Printf.printf
            "%-24s %s:%d %s (the engine and trace run on one domain)\n\
            \                           | %s\n"
            "concurrency lint" v.file v.line v.token v.context)
        violations;
      failures := "concurrency lint" :: !failures);
    (match Lint.Src_lint.scan_dead_exports ~root:src_root with
    | Error msg -> Printf.printf "%-24s skipped: %s\n" "dead exports" msg
    | Ok [] ->
      Printf.printf "%-24s ok (every lib/ val is used outside its module)\n"
        "dead exports"
    | Ok dead ->
      List.iter
        (fun (d : Lint.Src_lint.dead_export) ->
          Printf.printf
            "%-24s %s:%d val %s is named by no other .ml (delete it or \
             drop it from the interface)\n"
            "dead exports" d.mli d.line d.name)
        dead;
      failures := "dead exports" :: !failures);
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
     interpreter, lint fault plans against the device shape, lint the \
     engine/trace sources for concurrency primitives, and lint lib/ \
     interfaces for dead exports; fail unless each program is accepted \
     loop-free with a complete certificate (zero residual runtime \
     checks), each plan is well-formed, the engine and trace use no \
     concurrency primitive, and every exported val is named by some \
     other module."
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
    workers_arg ~default:Faults.Chaos.default_config.Faults.Chaos.workers
      ~doc:"Worker count."
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

(* Cluster runner: the CLI face of Cluster.Lb_cluster.  The printed
   summary and the JSONL trace depend only on the arguments (devices,
   seed, plan, ...) — CI replays the same seed twice and diffs the
   trace files byte-for-byte. *)
let cluster_cmd =
  let devices_arg =
    let doc = "Member devices behind the VIP (\"8 LBs in total\", §6.1)." in
    Arg.(value & opt (int_in ~lo:1 ()) 8 & info [ "devices" ] ~docv:"N" ~doc)
  in
  let workers_arg = workers_arg ~default:4 ~doc:"Workers per member device." in
  let seed_arg =
    let doc = "Run seed; same seed replays byte-identically." in
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let duration_arg =
    let doc = "Virtual run length in milliseconds." in
    Arg.(value & opt (int_in ~lo:1 ()) 200 & info [ "duration-ms" ] ~docv:"MS" ~doc)
  in
  let conns_arg =
    let doc =
      "Connections to open, spread uniformly over the first 80% of the \
       run."
    in
    Arg.(value & opt (int_in ~lo:0 ()) 400 & info [ "conns" ] ~docv:"N" ~doc)
  in
  let reqs_arg =
    let doc = "Requests per connection (1 ms service cost each)." in
    Arg.(value & opt (int_in ~lo:1 ()) 2 & info [ "reqs" ] ~docv:"N" ~doc)
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
      "Fault plan file, armed on every member's own simulator (entries \
       must sit beyond one network hop, 100 us, so arming never \
       schedules into a member's past)."
    in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let parse_single_mode m =
    match Hermes.Config.Mode.of_string m with
    | Some md -> Ok (Lb.Device.of_mode md)
    | None -> Error (Printf.sprintf "unknown mode %S" m)
  in
  let run devices workers seed duration_ms conns reqs mode_name plan_file
      trace =
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
      let records = ref 0 in
      with_trace ~count:records trace @@ fun () ->
      let module ST = Engine.Sim_time in
      let sim = Engine.Sim.create () in
      let rng = Engine.Rng.create seed in
      let tenants = Netsim.Tenant.population ~n:4 ~base_dport:20000 in
      let cluster =
        Cluster.Lb_cluster.create ~sim ~rng ~tenants ~devices ~mode ~workers ()
      in
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
      (* Everything on stdout is deterministic in the arguments;
         wall-clock goes to stderr so replays can diff stdout too.
         [lookahead=] prints the hop under its old name: the cluster
         golden pins this line. *)
      Printf.printf
        "cluster devices=%d workers=%d mode=%s seed=%d lookahead=%s \
         duration=%dms\n"
        devices workers mode_name seed
        (ST.to_string Cluster.Lb_cluster.hop)
        duration_ms;
      Printf.printf
        "conns established=%d closed=%d resets=%d dispatch_failed=%d\n"
        !established !closed !resets !failed;
      Printf.printf
        "requests done=%d device_completed=%d device_dropped=%d\n"
        !req_done
        (Cluster.Lb_cluster.completed cluster)
        (Cluster.Lb_cluster.dropped cluster);
      Printf.printf "trace records=%d\n" !records;
      Printf.eprintf "wall=%.3fs\n%!" wall
in
  let doc =
    "Run a multi-device cluster simulation, each device on its own \
     simulator behind one control clock; the same seed replays the \
     merged trace and the stdout summary byte for byte."
  in
  Cmd.v (Cmd.info "cluster" ~doc)
    Term.(
      ret
        (const run $ devices_arg $ workers_arg $ seed_arg
       $ duration_arg $ conns_arg $ reqs_arg $ mode_arg $ plan_arg
       $ trace_arg))

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
      trace_dump_cmd;
    ]

let () = exit (Cmd.eval main)
