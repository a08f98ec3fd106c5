(* Connection-plane benchmark: the per-connection costs PR 8 drove to
   zero allocation, plus the multi-million-connection soak its memory
   gate rides on.

   - [conn_open_close]: steady open/close churn through the SoA
     [Conn_table] vs the retired Hashtbl implementation
     ([Conn_table.Ref]).  The gate requires exactly zero minor words
     per op on the SoA path — connection churn must not touch the GC.
   - [sock_owner]: dedicated-socket ownership lookups through the
     dense int side table ([Conn_table.Dense]) vs a Hashtbl mapping to
     boxed pairs.  Same zero-allocation requirement.
   - [trace_binary]: encoding one fixed event stream through the
     binary trace sink vs the JSONL sink (informational speedup; the
     formats differ so there is no shared checksum beyond the count).
   - [device_soak]: a full Reuseport device accepting, serving and
     closing 2M connections (10x one worker's default
     [conn_capacity]) in a steady stream, with sampling enabled.  The
     row records the process max-RSS high-water mark; the gate bounds
     it against the committed baseline, which is what catches a
     reintroduced per-connection or per-sample leak. *)

type result = {
  name : string;
  size : string; (* "full" or "quick" — only same-size entries compare *)
  fast_ns : float; (* ns/op, new path *)
  base_ns : float; (* ns/op, retired baseline; -1 = n/a *)
  speedup : float; (* base/fast; -1 = n/a *)
  fast_words : float; (* minor words/op on the fast path; -1 = n/a *)
  rss_kb : int; (* process VmHWM after the scenario; -1 = n/a *)
  checksum : int;
}

let mix i = (i * 0x61C88647) lxor (i lsr 7)

(* VmHWM from /proc/self/status: the peak resident set over the whole
   process lifetime, in kB.  -1 where procfs is unavailable. *)
let max_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> -1
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
            |> Option.value ~default:acc
          else acc
        in
        go acc
    in
    let r = go (-1) in
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
        let probe = i + 2 + (mix i land (window - 1)) in
        let s = T.find_slot t probe in
        if s >= 0 then sum := !sum + T.aux t s
      end
    done;
    !sum + T.length t
  in
  let base () =
    let t = T.Ref.create ~dummy:"" ~capacity:window () in
    for k = 1 to window do
      T.Ref.add t ~key:k ~aux:(2 * k) payload
    done;
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      ignore (T.Ref.remove t (i + 1));
      let k = i + window + 1 in
      T.Ref.add t ~key:k ~aux:(2 * k) payload;
      if i land 7 = 0 then begin
        let probe = i + 2 + (mix i land (window - 1)) in
        let s = T.Ref.find_slot t probe in
        if s >= 0 then sum := !sum + T.Ref.aux t s
      end
    done;
    !sum + T.Ref.length t
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

(* Dedicated-socket ownership: socket id -> (worker, fd).  The dense
   side table stores the two ints unboxed; the retired Hashtbl boxed a
   pair per bind. *)
let sock_owner_scenario ~window ~ops =
  let module D = Engine.Conn_table.Dense in
  let fast () =
    let d = D.create ~capacity:window () in
    for k = 1 to window do
      D.set d ~key:k ~a:(k land 7) ~b:(k * 3)
    done;
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      let k = 1 + (mix i land (window - 1)) in
      sum := !sum + D.get_a d k + D.get_b d k;
      if i land 15 = 0 then begin
        D.remove d k;
        D.set d ~key:k ~a:(k land 7) ~b:(k * 3)
      end
    done;
    !sum
  in
  let base () =
    let h = Hashtbl.create window in
    for k = 1 to window do
      Hashtbl.replace h k (k land 7, k * 3)
    done;
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      let k = 1 + (mix i land (window - 1)) in
      (match Hashtbl.find_opt h k with
      | Some (a, b) -> sum := !sum + a + b
      | None -> ());
      if i land 15 = 0 then begin
        Hashtbl.remove h k;
        Hashtbl.replace h k (k land 7, k * 3)
      end
    done;
    !sum
  in
  let words =
    let d = D.create ~capacity:window () in
    for k = 1 to window do
      D.set d ~key:k ~a:(k land 7) ~b:(k * 3)
    done;
    fun () ->
      for i = 0 to ops - 1 do
        let k = 1 + (mix i land (window - 1)) in
        ignore (D.get_a d k + D.get_b d k);
        if i land 15 = 0 then begin
          D.remove d k;
          D.set d ~key:k ~a:(k land 7) ~b:(k * 3)
        end
      done
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
            { port = 80; flow_hash = mix i; via = Trace.Prog; slot = i land 7 }
        | 1 -> Trace.Accept { worker = i land 7; conn = i }
        | 2 ->
          Trace.Wst_write { worker = i land 7; column = Trace.Conn; value = i }
        | _ -> Trace.Close { worker = i land 7; conn = i; reset = false }
      in
      { Trace.seq = i; time = i * 1000; event })

let trace_scenario ~ops ~size ~reps =
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
  let time_best f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best *. 1e9 /. float_of_int ops
  in
  let fast_ns = time_best (encode_with Trace.Binary.sink) in
  let base_ns = time_best (encode_with Trace.jsonl_sink) in
  {
    name = "trace_binary";
    size;
    fast_ns;
    base_ns;
    speedup = base_ns /. fast_ns;
    fast_words = -1.0 (* the encoder's scratch reuse is not a GC gate *);
    rss_kb = -1;
    checksum = ops;
  }

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
  {
    name = "device_soak";
    size;
    fast_ns = dt *. 1e9 /. float_of_int conns_total;
    base_ns = -1.0;
    speedup = -1.0;
    fast_words = -1.0;
    rss_kb = max_rss_kb ();
    checksum = completed;
  }

(* ------------------------------------------------------------------ *)

let run_all ~quick () =
  let size = if quick then "quick" else "full" in
  let reps = if quick then 5 else 3 in
  let churn_ops = if quick then 200_000 else 2_000_000 in
  let window = if quick then 16_384 else 131_072 in
  let trace_ops = if quick then 50_000 else 500_000 in
  let soak_conns = if quick then 200_000 else 2_000_000 in
  let churn =
    let fast, base, words = churn_scenario ~window ~ops:churn_ops in
    Dispatch_bench.run_pair ~reps ~name:"conn_open_close" ~size ~ops:churn_ops
      ~fast ~base ~words ()
  in
  let owner =
    let fast, base, words = sock_owner_scenario ~window ~ops:churn_ops in
    Dispatch_bench.run_pair ~reps ~name:"sock_owner" ~size ~ops:churn_ops ~fast
      ~base ~words ()
  in
  let of_pair (r : Dispatch_bench.result) =
    {
      name = r.Dispatch_bench.name;
      size = r.Dispatch_bench.size;
      fast_ns = r.Dispatch_bench.fast_ns;
      base_ns = r.Dispatch_bench.base_ns;
      speedup = r.Dispatch_bench.speedup;
      fast_words = r.Dispatch_bench.fast_words;
      rss_kb = -1;
      checksum = r.Dispatch_bench.checksum;
    }
  in
  [
    of_pair churn;
    of_pair owner;
    trace_scenario ~ops:trace_ops ~size ~reps;
    soak_scenario ~conns_total:soak_conns ~size;
  ]

let print_table results =
  print_string "\n=== Connection-plane benchmarks ===\n";
  let table =
    Stats.Table.create
      ~header:
        [ "scenario"; "fast ns/op"; "base ns/op"; "speedup"; "minor w/op"; "maxRSS MB" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row table
        [
          r.name;
          Printf.sprintf "%.1f" r.fast_ns;
          (if r.base_ns < 0.0 then "n/a" else Printf.sprintf "%.1f" r.base_ns);
          (if r.speedup < 0.0 then "n/a" else Printf.sprintf "%.2fx" r.speedup);
          (if r.fast_words < 0.0 then "n/a"
           else Printf.sprintf "%.3f" r.fast_words);
          (if r.rss_kb < 0 then "n/a"
           else Printf.sprintf "%.1f" (float_of_int r.rss_kb /. 1024.0));
        ])
    results;
  Stats.Table.print table

(* ------------------------------------------------------------------ *)
(* JSON + regression gate (Sched_bench format family)                   *)

let entry_key = Sched_bench.entry_key

let render_entry r =
  Printf.sprintf
    "{%s,\"fast_ns\":%.2f,\"base_ns\":%.2f,\"speedup\":%.3f,\"fast_words\":%.3f,\"rss_kb\":%d,\"checksum\":%d}"
    (entry_key ~name:r.name ~size:r.size)
    r.fast_ns r.base_ns r.speedup r.fast_words r.rss_kb r.checksum

let write_json ~file results =
  let kept =
    List.filter
      (fun e ->
        not
          (List.exists
             (fun r ->
               Sched_bench.find_sub e (entry_key ~name:r.name ~size:r.size) 0
               <> None)
             results))
      (Sched_bench.file_entries file)
  in
  let oc = open_out file in
  output_string oc "{\"schema\":\"hermes-conn-bench/1\",\"scenarios\":[";
  output_string oc (String.concat "," (kept @ List.map render_entry results));
  output_string oc "]}\n";
  close_out oc;
  Printf.printf "conn bench: wrote %s\n" file

(* Numeric field of the matching baseline entry. *)
let baseline_field json ~name ~size ~field =
  match Sched_bench.find_sub json (entry_key ~name ~size) 0 with
  | None -> None
  | Some i -> (
    let tag = Printf.sprintf "\"%s\":" field in
    match Sched_bench.find_sub json tag i with
    | None -> None
    | Some j ->
      let k = j + String.length tag in
      let e = ref k in
      let len = String.length json in
      while
        !e < len
        &&
        match json.[!e] with
        | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
        | _ -> false
      do
        incr e
      done;
      float_of_string_opt (String.sub json k (!e - k)))

(* The gate:
   - every paired row keeps >= 75% of the committed same-size baseline
     speedup (these ops run in tens of ns, so the ratio is noisier
     than the coarser bench families; the floors below do the
     load-bearing work) and holds its absolute floor: SoA churn beats
     the Hashtbl path outright, the dense side table and the binary
     sink beat their boxed/textual baselines by a wide margin;
   - [conn_open_close] / [sock_owner] allocate exactly zero minor
     words per op (when the runtime supports the measurement);
   - [device_soak]'s max-RSS stays <= 1.5x the committed baseline —
     the multi-million-connection memory ceiling. *)
let speedup_floor = function
  | "conn_open_close" -> 1.3
  | "sock_owner" -> 3.0
  | "trace_binary" -> 4.0
  | _ -> 0.0

let check ~baseline results =
  match
    (try Some (Sched_bench.read_file baseline) with Sys_error _ -> None)
  with
  | None ->
    Printf.eprintf "conn bench: baseline %s not found\n" baseline;
    false
  | Some json ->
    let ok = ref true in
    List.iter
      (fun r ->
        let field f = baseline_field json ~name:r.name ~size:r.size ~field:f in
        if field "speedup" = None then begin
          Printf.eprintf "conn bench: no %s baseline entry for %s\n" r.size
            r.name;
          ok := false
        end;
        (match field "speedup" with
        | Some base when r.speedup >= 0.0 && base >= 0.0 ->
          if r.speedup < 0.75 *. base then begin
            Printf.eprintf
              "conn bench REGRESSION: %s (%s) speedup %.2fx < 0.75 * baseline \
               %.2fx\n"
              r.name r.size r.speedup base;
            ok := false
          end
        | _ -> ());
        (let floor = speedup_floor r.name in
         if r.speedup >= 0.0 && r.speedup < floor then begin
           Printf.eprintf
             "conn bench REGRESSION: %s speedup %.2fx < %.2fx floor\n" r.name
             r.speedup floor;
           ok := false
         end);
        (match r.name with
        | "conn_open_close" | "sock_owner" ->
          if r.fast_words > 0.0 then begin
            Printf.eprintf
              "conn bench REGRESSION: %s allocates %.3f minor words/op (want \
               0)\n"
              r.name r.fast_words;
            ok := false
          end
        | _ -> ());
        match (r.name, field "rss_kb") with
        | "device_soak", Some base_rss when base_rss > 0.0 && r.rss_kb >= 0 ->
          if float_of_int r.rss_kb > 1.5 *. base_rss then begin
            Printf.eprintf
              "conn bench REGRESSION: %s max-RSS %d kB > 1.5 * baseline %.0f \
               kB\n"
              r.name r.rss_kb base_rss;
            ok := false
          end
        | _ -> ())
      results;
    if !ok then print_string "conn bench: regression gate passed\n";
    !ok
