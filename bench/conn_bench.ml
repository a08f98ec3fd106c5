(* Connection-plane benchmark: the per-connection costs that run with
   zero allocation, plus the multi-million-connection soak the memory
   gate rides on.

   - [conn_open_close]: steady open/close churn through the SoA
     [Conn_table] vs the retired Hashtbl implementation
     ([Oracles.Conn_table_ref]).  The gate requires exactly zero minor words
     per op on the SoA path — connection churn must not touch the GC.
   - [trace_binary]: encoding one fixed event stream through the
     binary trace sink vs the JSONL sink (the formats differ, so the
     shared checksum is only the record count).
   - [device_soak]: a full Reuseport device accepting, serving and
     closing 2M connections (10x one worker's default
     [conn_capacity]) in a steady stream, with sampling enabled.  The
     row records the process max-RSS high-water mark; the gate bounds
     it against the committed baseline, which is what catches a
     reintroduced per-connection or per-sample leak. *)

(* VmHWM from /proc/self/status: the peak resident set over the whole
   process lifetime, in kB.  None where procfs is unavailable. *)
let max_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> acc
      | line ->
        let acc =
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            String.sub line 6 (String.length line - 6)
            |> String.trim
            |> String.split_on_char ' '
            |> (function v :: _ -> int_of_string_opt v | [] -> None)
          else acc
        in
        go acc
    in
    let r = go None in
    close_in ic;
    r

(* ------------------------------------------------------------------ *)
(* Connection-table churn                                               *)

(* Steady state: [window] connections live; each op closes the oldest
   and opens a new one, the shape of a proxy at a fixed concurrency.
   Every 8th op also probes a live key so lookups are in the loop. *)
let churn_scenario ~window ~ops =
  let module T = Engine.Conn_table in
  let payload = "conn" (* shared: the table's own cost is what's measured *) in
  let fast () =
    let t = T.create ~dummy:"" ~capacity:window () in
    for k = 1 to window do
      T.add t ~key:k ~aux:(2 * k) payload
    done;
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      ignore (T.remove t (i + 1));
      let k = i + window + 1 in
      T.add t ~key:k ~aux:(2 * k) payload;
      if i land 7 = 0 then begin
        let probe = i + 2 + (Harness.mix i land (window - 1)) in
        let s = T.find_slot t probe in
        if s >= 0 then sum := !sum + T.aux t s
      end
    done;
    !sum + T.length t
  in
  let base () =
    let t = Oracles.Conn_table_ref.create ~dummy:"" ~capacity:window () in
    for k = 1 to window do
      Oracles.Conn_table_ref.add t ~key:k ~aux:(2 * k) payload
    done;
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      ignore (Oracles.Conn_table_ref.remove t (i + 1));
      let k = i + window + 1 in
      Oracles.Conn_table_ref.add t ~key:k ~aux:(2 * k) payload;
      if i land 7 = 0 then begin
        let probe = i + 2 + (Harness.mix i land (window - 1)) in
        let s = Oracles.Conn_table_ref.find_slot t probe in
        if s >= 0 then sum := !sum + Oracles.Conn_table_ref.aux t s
      end
    done;
    !sum + Oracles.Conn_table_ref.length t
  in
  let words =
    let t = T.create ~dummy:"" ~capacity:window () in
    for k = 1 to window do
      T.add t ~key:k ~aux:(2 * k) payload
    done;
    let off = ref 0 in
    fun () ->
      let base = !off in
      for i = base to base + ops - 1 do
        ignore (T.remove t (i + 1));
        T.add t ~key:(i + window + 1) ~aux:0 payload;
        if i land 7 = 0 then ignore (T.find_slot t (i + 2))
      done;
      off := base + ops
  in
  (fast, base, words)

(* ------------------------------------------------------------------ *)
(* Trace sink throughput                                                *)

(* A fixed stream cycling the hot event shapes a device run produces;
   both sinks encode the identical records, to a scratch file. *)
let trace_records n =
  List.init n (fun i ->
      let event =
        match i mod 4 with
        | 0 ->
          Trace.Rp_select
            { port = 80; flow_hash = Harness.mix i; via = Trace.Prog; slot = i land 7 }
        | 1 -> Trace.Accept { worker = i land 7; conn = i }
        | 2 ->
          Trace.Wst_write { worker = i land 7; column = Trace.Conn; value = i }
        | _ -> Trace.Close { worker = i land 7; conn = i; reset = false }
      in
      { Trace.seq = i; time = i * 1000; event })

let trace_scenario ~ops =
  let records = trace_records ops in
  let encode_with make_sink () =
    let path = Filename.temp_file "conn_bench" ".trace" in
    let oc = open_out_bin path in
    let sink = make_sink oc in
    List.iter sink.Trace.write records;
    sink.Trace.close ();
    close_out oc;
    Sys.remove path;
    ops
  in
  (encode_with Trace.Binary.sink, encode_with Trace.jsonl_sink)

(* ------------------------------------------------------------------ *)
(* Device soak                                                          *)

(* [conns_total] connections through a full Reuseport device: batches
   of [batch] SYNs every 50us from a self-rescheduling pump (so the
   event queue stays shallow and resident memory reflects connection
   state, not pending closures), each connection serving one request
   and closing.  Sampling is on, exercising the bounded ring. *)
let soak_scenario ~conns_total ~size =
  let workers = 8 in
  (* 32 conns / 50us = 640k conns/s against ~1.3M/s of worker capacity
     at 2us of request CPU plus the fixed accept/close costs: a busy
     but stable device, so the run drains instead of collapsing. *)
  let batch = 32 in
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create 11 in
  let tenants = Netsim.Tenant.population ~n:1 ~base_dport:20000 in
  let device =
    Lb.Device.create ~sim ~rng ~mode:Lb.Device.Reuseport ~workers ~tenants ()
  in
  Lb.Device.start device;
  Lb.Device.enable_sampling device ~every:(Engine.Sim_time.ms 10) ();
  let events =
    {
      Lb.Device.established =
        (fun conn ->
          let req =
            Lb.Request.make ~id:(Lb.Device.fresh_id device)
              ~op:Lb.Request.Plain_proxy ~size:200
              ~cost:(Engine.Sim_time.us 2) ~tenant_id:conn.Lb.Conn.tenant_id
          in
          ignore (Lb.Device.send device conn req));
      request_done = (fun conn _ -> Lb.Device.close_conn device conn);
      closed = (fun _ -> ());
      reset = (fun _ -> ());
      dispatch_failed = (fun () -> ());
    }
  in
  let opened = ref 0 in
  let rec pump () =
    let n = min batch (conns_total - !opened) in
    for _ = 1 to n do
      incr opened;
      Lb.Device.connect device ~tenant:0 ~events
    done;
    if !opened < conns_total then
      ignore (Engine.Sim.schedule_after sim ~delay:(Engine.Sim_time.us 50) pump)
  in
  ignore (Engine.Sim.schedule sim ~at:(Engine.Sim_time.us 1) pump);
  let limit =
    Engine.Sim_time.add
      (Engine.Sim_time.us (50 * ((conns_total / batch) + 2)))
      (Engine.Sim_time.ms 1000)
  in
  let t0 = Unix.gettimeofday () in
  Engine.Sim.run_until sim ~limit;
  let dt = Unix.gettimeofday () -. t0 in
  let completed = Lb.Device.completed device in
  if completed < conns_total * 99 / 100 then
    failwith
      (Printf.sprintf "conn bench soak: only %d/%d connections completed"
         completed conns_total);
  Harness.Row.v ~family:"conn" ~name:"device_soak" ~size
    ([ ("fast_ns", dt *. 1e9 /. float_of_int conns_total) ]
    @ Option.to_list
        (Option.map (fun kb -> ("rss_kb", float_of_int kb)) (max_rss_kb ()))
    @ [ ("checksum", float_of_int completed) ])

(* ------------------------------------------------------------------ *)

let run ~quick =
  let size = Harness.Row.size ~quick in
  let reps = if quick then 5 else 3 in
  let churn_ops = if quick then 200_000 else 2_000_000 in
  let window = if quick then 16_384 else 131_072 in
  let trace_ops = if quick then 50_000 else 500_000 in
  let soak_conns = if quick then 200_000 else 2_000_000 in
  let pair = Harness.paired ~family:"conn" ~size ~reps in
  let churn =
    let fast, base, words = churn_scenario ~window ~ops:churn_ops in
    pair ~name:"conn_open_close" ~ops:churn_ops ~words fast base
  in
  [
    churn;
    (let fast, base = trace_scenario ~ops:trace_ops in
     pair ~name:"trace_binary" ~ops:trace_ops fast base);
    soak_scenario ~conns_total:soak_conns ~size;
  ]

(* The gate:
   - every paired row keeps >= 75% of the committed same-size baseline
     speedup (these ops run in tens of ns, so the ratio is noisier
     than the coarser bench families; the floors below do the
     load-bearing work) and holds its absolute floor: SoA churn beats
     the Hashtbl path outright, the binary sink beats the JSONL sink
     by a wide margin;
   - [conn_open_close] allocates exactly zero minor words per op (when
     the runtime supports the measurement);
   - [device_soak]'s max-RSS stays <= 1.5x the committed baseline —
     the multi-million-connection memory ceiling. *)
let gates (r : Harness.Row.t) =
  let open Harness.Gate in
  v "speedup" (Rel_floor 0.75)
  ::
  (match r.name with
  | "conn_open_close" -> [ v "speedup" (Floor 1.3); v "fast_words" Zero ]
  | "trace_binary" -> [ v "speedup" (Floor 4.0) ]
  | "device_soak" -> [ v "rss_kb" (Ceiling (1.5, 0.0)) ]
  | _ -> [])

let family = Harness.Family.v "conn" run ~gates
