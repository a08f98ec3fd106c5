(* Trace subsystem tests: recorder semantics, rendering stability
   (the golden-file format), and wakeup-order conformance driven
   through the full device stack — asserting the *sequence* of woken
   workers per policy, not just wake counts. *)

let check = Alcotest.check
let ms = Engine.Sim_time.ms

(* ------------------------------------------------------------------ *)
(* Recorder                                                             *)

let test_disabled_by_default () =
  check Alcotest.bool "disabled" false (Trace.enabled ());
  (* emit without a sink is a no-op *)
  Trace.emit (Trace.Accept { worker = 0; conn = 1 })

let test_seq_and_time_stamping () =
  let records =
    Capture.records (fun () ->
        check Alcotest.bool "enabled inside" true (Trace.enabled ());
        Trace.set_now 100;
        Trace.emit (Trace.Accept { worker = 1; conn = 1 });
        Trace.set_now 250;
        Trace.emit (Trace.Close { worker = 1; conn = 1; reset = false }))
  in
  check Alcotest.bool "disabled after" false (Trace.enabled ());
  match records with
  | [ a; b ] ->
    check Alcotest.int "seq 0" 0 a.Trace.seq;
    check Alcotest.int "seq 1" 1 b.Trace.seq;
    check Alcotest.int "t 100" 100 a.Trace.time;
    check Alcotest.int "t 250" 250 b.Trace.time
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs)

(* A sink installed inside another's recording tees off the same
   stream: both see its records under one contiguous seq, and the
   outer sink is back, still open, afterwards. *)
let test_nested_with_sink () =
  let outer, outer_records = Capture.sink () in
  let inner, inner_records = Capture.sink () in
  let inner_closed = ref false in
  let accept conn = Trace.emit (Trace.Accept { worker = 0; conn }) in
  Trace.with_sink outer (fun () ->
      accept 1;
      Trace.with_sink
        { inner with close = (fun () -> inner_closed := true) }
        (fun () ->
          accept 2;
          accept 3);
      check Alcotest.bool "inner closed on exit" true !inner_closed;
      check Alcotest.bool "outer still installed" true (Trace.enabled ());
      accept 4);
  check Alcotest.bool "disabled after" false (Trace.enabled ());
  let seq_conn records =
    List.map
      (fun r ->
        match r.Trace.event with
        | Trace.Accept { conn; _ } -> (r.Trace.seq, conn)
        | _ -> (-1, -1))
      (records ())
  in
  check
    Alcotest.(list (pair int int))
    "outer: every record, contiguous seq"
    [ (0, 1); (1, 2); (2, 3); (3, 4) ]
    (seq_conn outer_records);
  check
    Alcotest.(list (pair int int))
    "inner: its scope" [ (1, 2); (2, 3) ] (seq_conn inner_records)

(* The text rendering is the golden-file format: pin it exactly so an
   accidental format change shows up here, not as a confusing golden
   diff. *)
let test_render_stability () =
  let cases =
    [
      ( Trace.Wq_wake { policy = Trace.Lifo; queue = [ 3; 2 ]; woken = [ 3 ]; steps = 1 },
        "wq.wake policy=lifo queue=[3,2] woken=[3] steps=1" );
      ( Trace.Epoll_dispatch
          { worker = 2; events = [ (4, Trace.Accept_io, 2); (5, Trace.Read_io, 1) ] },
        "epoll.dispatch worker=2 events=[4:accept*2,5:read*1]" );
      ( Trace.Sched_filter { stage = Trace.By_conn; cutoff = 1.25; survivors = 0xfL; live = 4 },
        "sched.filter stage=conn cutoff=1.25 survivors=0xf live=4" );
      ( Trace.Sched_result { bitmap = 0xeL; passed = 3; total = 4; after_time = 4 },
        "sched.result bitmap=0xe passed=3/4 after_time=4" );
      ( Trace.Map_update { map = "M_Sel"; key = 0; value = 0xfL },
        "ebpf.map_update map=M_Sel key=0 value=0xf" );
      ( Trace.Prog_run
          { prog = "hermes_dispatch"; flow_hash = 0xab; outcome = Trace.Select; cycles = 38 },
        "ebpf.run prog=hermes_dispatch hash=0xab outcome=select cycles=38" );
      ( Trace.Rp_select { port = 80; flow_hash = 0xcd; via = Trace.Prog; slot = 2 },
        "reuseport.select port=80 hash=0xcd via=prog slot=2" );
      ( Trace.Rp_drop { port = 80; flow_hash = 0xcd },
        "reuseport.drop port=80 hash=0xcd" );
      (Trace.Accept { worker = 1; conn = 7 }, "worker.accept worker=1 conn=7");
      ( Trace.Close { worker = 1; conn = 7; reset = true },
        "worker.close worker=1 conn=7 reset=true" );
      ( Trace.Wst_write { worker = 3; column = Trace.Busy; value = 2 },
        "wst.write worker=3 col=busy value=2" );
      ( Trace.Probe_timeout { tenant = 2; after = 300_000_000 },
        "probe.timeout tenant=2 after=300000000" );
      ( Trace.Fault_inject { fault = Trace.Hang; worker = 3; arg = 600_000_000 },
        "fault.inject kind=hang worker=3 arg=600000000" );
      ( Trace.Fault_clear { fault = Trace.Ebpf_fail; worker = -1 },
        "fault.clear kind=ebpf_fail worker=-1" );
      ( Trace.Splice_attach { conn = 1; worker = 2; key = 3 },
        "splice.attach conn=1 worker=2 key=3" );
      ( Trace.Splice_redirect { conn = 1; worker = 2; bytes = 8192; copied = 256 },
        "splice.redirect conn=1 worker=2 bytes=8192 copied=256" );
      ( Trace.Splice_teardown { conn = 1; worker = 2; key = 3; reason = Trace.By_isolate },
        "splice.teardown conn=1 worker=2 key=3 reason=isolate" );
    ]
  in
  List.iter
    (fun (ev, expected) -> check Alcotest.string expected expected (Trace.render_event ev))
    cases

let test_jsonl_roundtrip_shape () =
  let r =
    {
      Trace.seq = 3;
      time = 42;
      event = Trace.Rp_select { port = 80; flow_hash = 7; via = Trace.Hash; slot = 1 };
    }
  in
  check Alcotest.string "json line"
    "{\"seq\":3,\"t\":42,\"ev\":\"reuseport.select\",\"port\":80,\"hash\":7,\"via\":\"hash\",\"slot\":1}"
    (Trace.json_of_record r)

(* ------------------------------------------------------------------ *)
(* JSON string escaping (RFC 8259)                                      *)

(* Event strings are usually tame identifiers, but verifier reasons
   are arbitrary; every escape class must survive.  Driven through
   [json_of_record] so the pinned output is exactly what lands in trace
   files. *)
let test_json_string_escaping () =
  let json_of_reason reason =
    Trace.json_of_record
      {
        Trace.seq = 0;
        time = 0;
        event =
          Trace.Verifier_verdict
            {
              prog = "p";
              backend = "bytecode";
              accepted = false;
              insns = 0;
              visited = 0;
              proved = 0;
              residual = 0;
              reason;
            };
      }
  in
  let cases =
    [
      ("plain", "\"plain\"");
      ("with \"quotes\"", "\"with \\\"quotes\\\"\"");
      ("back\\slash", "\"back\\\\slash\"");
      ("line1\nline2", "\"line1\\nline2\"");
      ("tab\there", "\"tab\\there\"");
      ("cr\rlf", "\"cr\\rlf\"");
      ("bell\bboy", "\"bell\\bboy\"");
      ("form\012feed", "\"form\\ffeed\"");
      ("nul\000end", "\"nul\\u0000end\"");
      ("esc\027end", "\"esc\\u001bend\"");
      (* UTF-8 passes through byte-for-byte: escaping is only for the
         RFC's mandatory set *)
      ("caf\xc3\xa9", "\"caf\xc3\xa9\"");
    ]
  in
  List.iter
    (fun (raw, expected_literal) ->
      let line = json_of_reason raw in
      let expected =
        Printf.sprintf
          "{\"seq\":0,\"t\":0,\"ev\":\"verifier.verdict\",\"prog\":\"p\",\"backend\":\"bytecode\",\"accepted\":false,\"insns\":0,\"visited\":0,\"proved\":0,\"residual\":0,\"reason\":%s}"
          expected_literal
      in
      check Alcotest.string (String.escaped raw) expected line)
    cases

(* ------------------------------------------------------------------ *)
(* Binary codec                                                         *)

(* One record per constructor, exercising interning reuse (repeated
   strings), empty and multi-element lists, negative ints (device-wide
   faults carry worker = -1), floats, and int64 bitmaps. *)
let all_constructor_records =
  let ev i e = { Trace.seq = i; time = i * 1000; event = e } in
  [
    ev 0 (Trace.Wq_wake { policy = Trace.Lifo; queue = [ 3; 2; 1 ]; woken = [ 3 ]; steps = 1 });
    ev 1 (Trace.Wq_wake { policy = Trace.Rr; queue = []; woken = []; steps = 0 });
    ev 2 (Trace.Wq_wake { policy = Trace.All; queue = [ 1; 0 ]; woken = [ 1; 0 ]; steps = 2 });
    ev 3 (Trace.Wq_wake { policy = Trace.Fifo; queue = [ 0 ]; woken = [ 0 ]; steps = 1 });
    ev 4
      (Trace.Epoll_dispatch
         { worker = 2; events = [ (4, Trace.Accept_io, 2); (5, Trace.Read_io, 1) ] });
    ev 5 (Trace.Epoll_dispatch { worker = 0; events = [] });
    ev 6
      (Trace.Sched_filter
         { stage = Trace.By_time; cutoff = 1.25e9; survivors = 0xdeadbeefL; live = 64 });
    ev 7 (Trace.Sched_filter { stage = Trace.By_conn; cutoff = -1.0; survivors = -1L; live = 0 });
    ev 8 (Trace.Sched_result { bitmap = 0xeL; passed = 3; total = 4; after_time = 4 });
    ev 9 (Trace.Map_update { map = "M_Sel"; key = 0; value = 0xfL });
    ev 10
      (Trace.Prog_run
         { prog = "hermes_dispatch"; flow_hash = 0xab; outcome = Trace.Select; cycles = 38 });
    ev 11 (Trace.Rp_select { port = 80; flow_hash = 0xcd; via = Trace.Prog; slot = 2 });
    ev 12 (Trace.Rp_select { port = 81; flow_hash = 0xce; via = Trace.Hash; slot = 0 });
    ev 13 (Trace.Rp_drop { port = 80; flow_hash = 0xcd });
    ev 14 (Trace.Accept { worker = 1; conn = 7 });
    ev 15 (Trace.Close { worker = 1; conn = 7; reset = true });
    ev 16 (Trace.Close { worker = 1; conn = 8; reset = false });
    ev 17 (Trace.Wst_write { worker = 3; column = Trace.Avail; value = 123456789 });
    ev 18 (Trace.Wst_write { worker = 3; column = Trace.Busy; value = 2 });
    ev 19 (Trace.Wst_write { worker = 3; column = Trace.Conn; value = 0 });
    ev 20 (Trace.Probe_timeout { tenant = 2; after = 300_000_000 });
    ev 21
      (Trace.Verifier_verdict
         {
           prog = "hermes_dispatch";
           backend = "bytecode";
           accepted = true;
           insns = 41;
           visited = 97;
           proved = 5;
           residual = 1;
           reason = "";
         });
    ev 22
      (Trace.Verifier_verdict
         {
           prog = "bad_prog";
           backend = "ast";
           accepted = false;
           insns = 3;
           visited = 0;
           proved = 0;
           residual = 0;
           reason = "loop: back-edge at insn 2";
         });
    ev 23 (Trace.Fault_inject { fault = Trace.Hang; worker = 3; arg = 600_000_000 });
    ev 24 (Trace.Fault_inject { fault = Trace.Probe_loss; worker = -1; arg = 0 });
    ev 25 (Trace.Fault_clear { fault = Trace.Hang; worker = 3 });
    ev 26 (Trace.Splice_attach { conn = 9; worker = 1; key = 1573 });
    ev 27 (Trace.Splice_redirect { conn = 9; worker = 1; bytes = 65536; copied = 0 });
    ev 28 (Trace.Splice_teardown { conn = 9; worker = 1; key = 1573; reason = Trace.By_close });
  ]

let with_temp_file f =
  let path = Filename.temp_file "trace_test" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_binary path records =
  let oc = open_out_bin path in
  let sink = Trace.Binary.sink oc in
  List.iter sink.Trace.write records;
  sink.Trace.close ();
  close_out oc

let test_binary_roundtrip_all_constructors () =
  with_temp_file (fun path ->
      write_binary path all_constructor_records;
      let decoded = Trace.Binary.read_file path in
      check Alcotest.int "record count"
        (List.length all_constructor_records)
        (List.length decoded);
      List.iter2
        (fun original roundtripped ->
          check Alcotest.string
            (Printf.sprintf "record %d" original.Trace.seq)
            (Trace.json_of_record original)
            (Trace.json_of_record roundtripped);
          if original <> roundtripped then
            Alcotest.failf "structural mismatch at seq %d" original.Trace.seq)
        all_constructor_records decoded)

(* The .mli promises an allocation-free binary sink for events without
   string fields; these four are the per-connection hot ones. *)
let test_binary_sink_allocates_nothing () =
  let oc = open_out_bin Filename.null in
  let sink = Trace.Binary.sink oc in
  let records =
    Array.mapi
      (fun i event -> { Trace.seq = i; time = i * 1000; event })
      [|
        Trace.Accept { worker = 1; conn = 7 };
        Trace.Rp_select { port = 80; flow_hash = 0xcd; via = Trace.Prog; slot = 2 };
        Trace.Wst_write { worker = 3; column = Trace.Busy; value = 2 };
        Trace.Close { worker = 1; conn = 7; reset = true };
      |]
  in
  let write i = sink.Trace.write records.(i land 3) in
  for i = 1 to 10_000 do
    write i
  done;
  Alloc_gate.check "binary sink: accept/select/wst/close" write;
  sink.Trace.close ();
  close_out oc

let test_binary_rejects_garbage () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOTATRACE-------";
      close_out oc;
      (match Trace.Binary.read_file path with
      | exception Trace.Binary.Corrupt _ -> ()
      | _ -> Alcotest.fail "bad magic accepted");
      (* valid magic, truncated record header *)
      let oc = open_out_bin path in
      output_string oc Trace.Binary.magic;
      output_string oc "abc";
      close_out oc;
      (match Trace.Binary.read_file path with
      | exception Trace.Binary.Corrupt _ -> ()
      | _ -> Alcotest.fail "truncated header accepted");
      (* a stream in the earlier layout *)
      write_binary path all_constructor_records;
      let data = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "HTRCBIN1";
          output_string oc (String.sub data 8 (String.length data - 8)));
      match Trace.Binary.read_file path with
      | exception Trace.Binary.Corrupt _ -> ()
      | _ -> Alcotest.fail "HTRCBIN1 stream accepted")

(* Every golden scenario's records, encoded as one binary stream. *)
let golden_stream =
  lazy
    (let records =
       List.concat_map
         (fun s -> Capture.records s.Golden_scenarios.Scenarios.run)
         Golden_scenarios.Scenarios.all
     in
     with_temp_file (fun path ->
         write_binary path records;
         In_channel.with_open_bin path In_channel.input_all))

(* Truncated or bit-flipped streams either decode or raise [Corrupt] —
   never another exception. *)
let test_binary_fuzz =
  let mutant =
    QCheck.Gen.(
      int_bound max_int >>= fun seed ->
      bool >|= fun truncate ->
      let data = Lazy.force golden_stream in
      let rng = Random.State.make [| seed |] in
      let n = String.length data in
      if truncate then String.sub data 0 (Random.State.int rng n)
      else begin
        let b = Bytes.of_string data in
        for _ = 0 to Random.State.int rng 4 do
          let i = Random.State.int rng n in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int rng 8)))
        done;
        Bytes.to_string b
      end)
  in
  QCheck.Test.make ~count:300 ~name:"mutated stream decodes or raises Corrupt"
    (QCheck.make ~print:(fun s -> Printf.sprintf "<%d bytes>" (String.length s)) mutant)
    (fun data ->
      with_temp_file (fun path ->
          Out_channel.with_open_bin path (fun oc -> output_string oc data);
          match Trace.Binary.read_file path with
          | _ -> true
          | exception Trace.Binary.Corrupt _ -> true))

(* The load-bearing equivalence: over every golden scenario, the binary
   sink's decoded stream renders to exactly the lines the JSONL sink
   writes.  The scenarios are deterministic, so two captures of the
   same scenario see identical event streams. *)
let test_binary_jsonl_equivalence () =
  List.iter
    (fun s ->
      let jsonl_path = Filename.temp_file "scenario" ".jsonl" in
      let bin_path = Filename.temp_file "scenario" ".bin" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove jsonl_path;
          Sys.remove bin_path)
        (fun () ->
          let oc = open_out jsonl_path in
          Trace.with_sink (Trace.jsonl_sink oc) s.Golden_scenarios.Scenarios.run;
          close_out oc;
          let oc = open_out_bin bin_path in
          Trace.with_sink (Trace.Binary.sink oc) s.Golden_scenarios.Scenarios.run;
          close_out oc;
          let jsonl_lines =
            let ic = open_in jsonl_path in
            let rec go acc =
              match input_line ic with
              | line -> go (line :: acc)
              | exception End_of_file ->
                close_in ic;
                List.rev acc
            in
            go []
          in
          let decoded =
            List.map Trace.json_of_record (Trace.Binary.read_file bin_path)
          in
          check Alcotest.int
            (s.Golden_scenarios.Scenarios.name ^ ": event count")
            (List.length jsonl_lines) (List.length decoded);
          List.iteri
            (fun i (expected, got) ->
              if not (String.equal expected got) then
                Alcotest.failf "%s: event %d differs\njsonl:  %s\nbinary: %s"
                  s.Golden_scenarios.Scenarios.name i expected got)
            (List.combine jsonl_lines decoded);
          check Alcotest.bool
            (s.Golden_scenarios.Scenarios.name ^ ": trace non-empty")
            true
            (List.length jsonl_lines > 0)))
    Golden_scenarios.Scenarios.all

(* ------------------------------------------------------------------ *)
(* Wakeup-order conformance through the device stack                    *)

(* Drive [conns] spaced connects through a 4-worker device and return
   the woken-worker list of every wait-queue traversal, in order. *)
let wake_sequences mode ~conns ~spacing =
  let records =
    Capture.records (fun () ->
      let sim = Engine.Sim.create () in
      let rng = Engine.Rng.create 5 in
      let tenants = Netsim.Tenant.population ~n:1 ~base_dport:21000 in
      let device = Lb.Device.create ~sim ~rng ~mode ~workers:4 ~tenants () in
      Lb.Device.start device;
      for i = 1 to conns do
        ignore
          (Engine.Sim.schedule sim ~at:(spacing * i) (fun () ->
               Lb.Device.connect device ~tenant:0
                 ~events:Lb.Device.null_conn_events))
      done;
      Engine.Sim.run_until sim ~limit:(spacing * (conns + 2)))
  in
  List.filter_map
    (fun r ->
      match r.Trace.event with
      | Trace.Wq_wake { woken; _ } -> Some woken
      | _ -> None)
    records

let test_exclusive_is_lifo () =
  let seqs = wake_sequences Lb.Device.Exclusive ~conns:6 ~spacing:(ms 2) in
  check Alcotest.int "one wake per connect" 6 (List.length seqs);
  (* head insertion: the most recently registered worker (3) wins every
     single time — the concentration pathology, as a sequence *)
  List.iter (fun woken -> check Alcotest.(list int) "head wins" [ 3 ] woken) seqs

let test_rr_rotates () =
  let seqs = wake_sequences Lb.Device.Epoll_rr ~conns:8 ~spacing:(ms 2) in
  check
    Alcotest.(list (list int))
    "rotation, twice around"
    [ [ 3 ]; [ 2 ]; [ 1 ]; [ 0 ]; [ 3 ]; [ 2 ]; [ 1 ]; [ 0 ] ]
    seqs

let test_fifo_is_oldest_first () =
  let seqs = wake_sequences Lb.Device.Io_uring_fifo ~conns:6 ~spacing:(ms 2) in
  check Alcotest.int "one wake per connect" 6 (List.length seqs);
  (* FIFO starts from the oldest registration: worker 0, every time *)
  List.iter (fun woken -> check Alcotest.(list int) "oldest wins" [ 0 ] woken) seqs

let test_wake_all_herd () =
  let seqs = wake_sequences Lb.Device.Wake_all ~conns:4 ~spacing:(ms 2) in
  check Alcotest.int "one traversal per connect" 4 (List.length seqs);
  (* every blocked worker is woken, in queue (head-first) order: the
     thundering herd, per wake *)
  List.iter
    (fun woken -> check Alcotest.(list int) "whole herd" [ 3; 2; 1; 0 ] woken)
    seqs

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "trace"
    [
      ( "recorder",
        [
          Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
          Alcotest.test_case "seq and time stamping" `Quick test_seq_and_time_stamping;
          Alcotest.test_case "nested with_sink tees" `Quick test_nested_with_sink;
          Alcotest.test_case "render stability" `Quick test_render_stability;
          Alcotest.test_case "jsonl shape" `Quick test_jsonl_roundtrip_shape;
          Alcotest.test_case "json string escaping" `Quick test_json_string_escaping;
        ] );
      ( "binary",
        [
          Alcotest.test_case "roundtrip all constructors" `Quick
            test_binary_roundtrip_all_constructors;
          Alcotest.test_case "rejects garbage" `Quick test_binary_rejects_garbage;
          Alcotest.test_case "sink allocates nothing" `Quick
            test_binary_sink_allocates_nothing;
          QCheck_alcotest.to_alcotest test_binary_fuzz;
          Alcotest.test_case "binary = jsonl on golden scenarios" `Quick
            test_binary_jsonl_equivalence;
        ] );
      ( "wakeup-order",
        [
          Alcotest.test_case "exclusive = LIFO" `Quick test_exclusive_is_lifo;
          Alcotest.test_case "rr = rotation" `Quick test_rr_rotates;
          Alcotest.test_case "io_uring fifo = oldest first" `Quick
            test_fifo_is_oldest_first;
          Alcotest.test_case "wake_all = herd" `Quick test_wake_all_herd;
        ] );
    ]
