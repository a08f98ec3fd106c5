module Sim = Engine.Sim
module Sim_time = Engine.Sim_time
module Conn_table = Engine.Conn_table

type config = {
  max_events : int;
  epoll_timeout : Sim_time.t;
  conn_capacity : int;
  crash_on : Request.t -> bool;
}

let default_config =
  {
    max_events = 64;
    epoll_timeout = Sim_time.ms 5;
    conn_capacity = 200_000;
    crash_on = (fun _ -> false);
  }

type callbacks = {
  on_established : Conn.t -> unit;
  on_request_done : Conn.t -> Request.t -> unit;
  on_conn_closed : Conn.t -> unit;
  on_conn_reset : Conn.t -> unit;
}

type stats = {
  events_per_wait : Stats.Histogram.t;
  batch_processing : Stats.Histogram.t;
  blocking : Stats.Histogram.t;
  mutable loop_entries : int;
  mutable accepted : int;
  mutable completed : int;
  mutable closed : int;
  mutable resets : int;
  mutable pool_rejects : int;
  mutable spurious_wakeups : int;
  mutable spliced_redirects : int;
}

type state = Init | Blocked | Waking | Running | Crashed

(* The event loop's continuation: what the worker's one pending resume
   event does when it fires.  Everything else the continuation needs
   lives in worker fields (the epoll batch cursor, the accept or
   connection in progress, the requests left), so a charge schedules
   a preallocated closure instead of building a chain of them. *)
type phase =
  | After_sched_wait  (* the loop-entry scheduler pass is paid: poll *)
  | After_poll  (* the poll is paid: handle the batch *)
  | After_accept  (* an accept is paid: establish it, accept the next *)
  | After_close  (* a close marker is paid: close, next event *)
  | After_request  (* a request is paid: complete it, next request *)
  | After_sched_loop  (* the loop-end scheduler pass is paid: loop again *)
  | After_wake  (* the wakeup latency elapsed: loop again *)
  | After_timeout  (* epoll_wait timed out *)

type t = {
  worker_id : int;
  sim : Sim.t;
  cfg : config;
  ep : Kernel.Epoll.t;
  alloc_fd : unit -> int;
  callbacks : callbacks;
  hermes : Hermes.Runtime.t option;
  hooks : Hermes.Metrics.t option;  (* this worker's Fig. 9 hooks *)
  sched_at_end : bool;  (* Hermes schedules at loop end, not entry *)
  conn_table : Conn.t Conn_table.t; (* fd -> conn, SoA storage *)
  worker_stats : stats;
  mutable state : state;
  mutable timeout : Sim.handle;  (* the epoll_wait timeout while Blocked *)
  mutable wait_started : Sim_time.t;
  mutable synthetic_seq : int;  (* adopt_conn / fault-carrier conn ids *)
  mutable fault_conn : Conn.t option;  (* carrier for injected stalls *)
  mutable epoch : int;  (* invalidates in-flight continuations on crash *)
  (* CPU accounting: [cpu_committed] counts fully elapsed busy time;
     [cur_start, cur_end] is the charge interval in progress, so
     utilization sampling sees partial progress through long charges. *)
  mutable cpu_committed : Sim_time.t;
  mutable cur_start : Sim_time.t;
  mutable cur_end : Sim_time.t;
  mutable busy_outstanding : int;  (* our net contribution to the WST busy cell *)
  (* Continuation state. *)
  mutable phase : phase;
  mutable woken : bool;
  mutable batch_started : Sim_time.t;
  mutable ev_next : int;  (* cursor into the epoll instance's events *)
  mutable ev_count : int;
  mutable accept_fd : int;
  mutable accept_left : int;
  mutable accepted_conn : Kernel.Socket.pending_conn;
  mutable conn : Conn.t;
  mutable req : Request.t;
  mutable reqs_left : int;
  mutable resume : unit -> unit;  (* resumes the loop iff still this epoch *)
}

let null_tuple = { Netsim.Addr.src_ip = 0; src_port = 0; dst_ip = 0; dst_port = 0 }

(* Free table slots hold this placeholder instead of a dead
   connection's record, so closed conns (and their inbox contents) are
   collectable immediately; the continuation fields hold the
   placeholders below between uses for the same reason. *)
let dummy_conn =
  Conn.make ~id:0 ~fd:0 ~tuple:null_tuple ~flow_hash:0 ~tenant_id:(-1) ~worker_id:(-1)

let dummy_pending =
  { Kernel.Socket.seq = 0; tuple = null_tuple; flow_hash = 0; tenant_id = -1 }

let dummy_req = Request.make ~id:0 ~op:Request.Plain_proxy ~size:0 ~cost:0 ~tenant_id:(-1)

let id t = t.worker_id
let stats t = t.worker_stats

let cpu_busy_at t time =
  let in_progress =
    let span = time - t.cur_start in
    let len = t.cur_end - t.cur_start in
    if span < 0 then 0 else if span > len then len else span
  in
  t.cpu_committed + in_progress

let cpu_busy t = cpu_busy_at t (Sim.now t.sim)
(* The fault carrier sits in the table from the first stall until a
   restart drops it; it is no connection a client holds, so it is not
   counted. *)
let conn_count t =
  Conn_table.length t.conn_table - if Option.is_some t.fault_conn then 1 else 0

(* Sorted by fd (monotonic, so effectively accept order): iteration
   sites — degradation shedding, restart resets — behave independently
   of the table's internal hash order.  The carrier is left out, as in
   [conn_count]. *)
let conns t =
  let is_carrier c =
    match t.fault_conn with Some f -> f == c | None -> false
  in
  Conn_table.fold t.conn_table ~init:[] ~f:(fun acc ~key:_ ~slot ->
      let c = Conn_table.payload t.conn_table slot in
      if is_carrier c then acc else c :: acc)
  |> List.sort (fun (a : Conn.t) b -> compare a.Conn.fd b.Conn.fd)
let is_crashed t = t.state = Crashed

let avail_update t =
  match t.hooks with
  | Some h -> Hermes.Metrics.avail_update h ~now:(Sim.now t.sim)
  | None -> ()

let busy_add t n =
  if n <> 0 then begin
    t.busy_outstanding <- t.busy_outstanding + n;
    match t.hooks with
    | Some h -> Hermes.Metrics.busy_count h n
    | None -> ()
  end

let conn_add t n =
  match t.hooks with Some h -> Hermes.Metrics.conn_count h n | None -> ()

(* Charge [cost] of CPU to this core, then continue with [phase]; the
   resume dies silently if the worker crashed or restarted in the
   interim. *)
let charge t cost phase =
  (* The previous interval necessarily lies in the past: its
     continuation is what led to this call. *)
  t.cpu_committed <- t.cpu_committed + (t.cur_end - t.cur_start);
  let now = Sim.now t.sim in
  t.cur_start <- now;
  t.cur_end <- Sim_time.add now cost;
  t.phase <- phase;
  ignore (Sim.schedule_after t.sim ~delay:cost t.resume)

let listen t ~socket ~shared =
  Kernel.Epoll.add_listening t.ep ~fd:(t.alloc_fd ()) ~socket ~shared

let listen_shared t ~socket = listen t ~socket ~shared:true
let listen_dedicated t ~socket = listen t ~socket ~shared:false

let do_close t conn final_state =
  Kernel.Epoll.remove_conn t.ep ~fd:conn.Conn.fd;
  ignore (Conn_table.remove t.conn_table conn.Conn.fd);
  conn_add t (-1);
  conn.Conn.state <- final_state;
  if Trace.enabled () then
    Trace.emit
      (Trace.Close
         {
           worker = t.worker_id;
           conn = conn.Conn.id;
           reset = final_state = Conn.Reset;
         });
  match final_state with
  | Conn.Closed ->
    t.worker_stats.closed <- t.worker_stats.closed + 1;
    t.callbacks.on_conn_closed conn
  | Conn.Reset ->
    t.worker_stats.resets <- t.worker_stats.resets + 1;
    t.callbacks.on_conn_reset conn
  | Conn.Established -> assert false

let run_scheduler t rt phase =
  let result =
    Hermes.Runtime.schedule_and_sync rt ~worker:t.worker_id ~now:(Sim.now t.sim)
  in
  let cost =
    Cost.cycles_to_time
      (result.Hermes.Scheduler.cycles + Hermes.Runtime.syscall_cost_cycles)
  in
  charge t cost phase

(* Handle a connection the accept charge just paid for. *)
let establish t (pending : Kernel.Socket.pending_conn) =
  if Conn_table.length t.conn_table >= t.cfg.conn_capacity then begin
    (* Connection pool exhausted: reject with RST. *)
    t.worker_stats.pool_rejects <- t.worker_stats.pool_rejects + 1;
    let conn =
      Conn.make ~id:pending.seq ~fd:(-1) ~tuple:pending.tuple
        ~flow_hash:pending.flow_hash ~tenant_id:pending.tenant_id
        ~worker_id:t.worker_id
    in
    conn.Conn.state <- Conn.Reset;
    t.callbacks.on_conn_reset conn
  end
  else begin
    let conn_fd = t.alloc_fd () in
    let conn =
      Conn.make ~id:pending.seq ~fd:conn_fd ~tuple:pending.tuple
        ~flow_hash:pending.flow_hash ~tenant_id:pending.tenant_id
        ~worker_id:t.worker_id
    in
    Conn_table.add t.conn_table ~key:conn_fd ~aux:0 conn;
    Kernel.Epoll.add_conn t.ep ~fd:conn_fd;
    conn_add t 1;
    t.worker_stats.accepted <- t.worker_stats.accepted + 1;
    if Trace.enabled () then
      Trace.emit (Trace.Accept { worker = t.worker_id; conn = conn.Conn.id });
    t.callbacks.on_established conn
  end

let rec loop_enter t ~woken =
  match t.state with
  | Crashed -> ()
  | Init | Blocked | Waking | Running -> (
    t.state <- Running;
    t.worker_stats.loop_entries <- t.worker_stats.loop_entries + 1;
    avail_update t;
    match t.hermes with
    | Some rt when not t.sched_at_end ->
      t.woken <- woken;
      run_scheduler t rt After_sched_wait
    | Some _ | None -> do_wait t ~woken)

and do_wait t ~woken =
  let n = Kernel.Epoll.wait t.ep ~max_events:t.cfg.max_events in
  if n = 0 then begin
    if woken then
      t.worker_stats.spurious_wakeups <- t.worker_stats.spurious_wakeups + 1;
    t.wait_started <- Sim.now t.sim;
    t.phase <- After_timeout;
    t.timeout <- Sim.schedule_after t.sim ~delay:t.cfg.epoll_timeout t.resume;
    t.state <- Blocked
  end
  else begin
    if not woken then Stats.Histogram.record t.worker_stats.blocking 0.0;
    let total_units = ref 0 in
    for i = 0 to n - 1 do
      total_units := !total_units + Kernel.Epoll.event_units t.ep i
    done;
    Stats.Histogram.record t.worker_stats.events_per_wait (float_of_int !total_units);
    busy_add t !total_units;
    let scan = Kernel.Epoll.last_scan_cost t.ep in
    let poll_cost =
      Sim_time.add Cost.poll_base (scan * Cost.poll_per_shared_listen)
    in
    t.ev_next <- 0;
    t.ev_count <- n;
    charge t poll_cost After_poll
  end

and end_of_loop t =
  match t.hermes with
  | Some rt when t.sched_at_end -> run_scheduler t rt After_sched_loop
  | Some _ | None -> loop_enter t ~woken:false

(* The next event of the batch, or the batch's end. *)
and next_event t =
  if t.ev_next = t.ev_count then begin
    let elapsed = Sim_time.sub (Sim.now t.sim) t.batch_started in
    Stats.Histogram.record t.worker_stats.batch_processing (float_of_int elapsed);
    end_of_loop t
  end
  else begin
    let i = t.ev_next in
    t.ev_next <- i + 1;
    let fd = Kernel.Epoll.event_fd t.ep i in
    let units = Kernel.Epoll.event_units t.ep i in
    match Kernel.Epoll.event_kind t.ep i with
    | Kernel.Epoll.Accept_ready ->
      t.accept_fd <- fd;
      accept_next t units
    | Kernel.Epoll.Readable -> read_conn t fd units
  end

(* Drain up to [units] pending connections (multi-accept).  A shared
   queue may have been emptied by another worker in the meantime. *)
and accept_next t units =
  if units <= 0 then next_event t
  else
    let sock = Kernel.Epoll.listen_socket t.ep ~fd:t.accept_fd in
    match Kernel.Socket.accept sock with
    | None ->
      t.worker_stats.spurious_wakeups <- t.worker_stats.spurious_wakeups + 1;
      busy_add t (-units);
      next_event t
    | Some pending ->
      t.accepted_conn <- pending;
      t.accept_left <- units - 1;
      charge t Cost.accept_cost After_accept

and read_conn t fd units =
  let slot = Conn_table.find_slot t.conn_table fd in
  if slot < 0 then begin
    (* Data raced a close; discard the announced units. *)
    busy_add t (-units);
    next_event t
  end
  else begin
    let conn = Conn_table.payload t.conn_table slot in
    let n = max 0 (min units (Conn.queued conn)) in
    let missing = units - n in
    if missing > 0 then busy_add t (-missing);
    t.conn <- conn;
    t.reqs_left <- n;
    next_request t
  end

and next_request t =
  if t.reqs_left = 0 then begin
    t.conn <- dummy_conn;
    next_event t
  end
  else if not (Conn.is_open t.conn) then begin
    (* Connection was reset mid-batch; drop the remainder. *)
    busy_add t (-t.reqs_left);
    t.reqs_left <- 0;
    t.conn <- dummy_conn;
    next_event t
  end
  else begin
    let req = Conn.pop t.conn in
    t.reqs_left <- t.reqs_left - 1;
    if Request.is_close req then charge t Cost.close_cost After_close
    else if t.cfg.crash_on req then
      (* the poison request of section 7: the handler core-dumps *)
      crash t
    else begin
      t.req <- req;
      charge t req.Request.cost After_request
    end
  end

and resume t =
  match t.phase with
  | After_sched_wait -> do_wait t ~woken:t.woken
  | After_poll ->
    t.batch_started <- Sim.now t.sim;
    next_event t
  | After_accept ->
    let pending = t.accepted_conn in
    t.accepted_conn <- dummy_pending;
    establish t pending;
    busy_add t (-1);
    accept_next t t.accept_left
  | After_close ->
    do_close t t.conn Conn.Closed;
    busy_add t (-1);
    (* Anything after a close marker is discarded. *)
    busy_add t (-t.reqs_left);
    t.reqs_left <- 0;
    t.conn <- dummy_conn;
    next_event t
  | After_request ->
    let conn = t.conn and req = t.req in
    t.req <- dummy_req;
    conn.Conn.requests_done <- conn.Conn.requests_done + 1;
    t.worker_stats.completed <- t.worker_stats.completed + 1;
    busy_add t (-1);
    t.callbacks.on_request_done conn req;
    next_request t
  | After_sched_loop -> loop_enter t ~woken:false
  | After_wake -> loop_enter t ~woken:true
  | After_timeout ->
    Stats.Histogram.record t.worker_stats.blocking
      (Sim_time.to_sec_f t.cfg.epoll_timeout *. 1e9);
    Stats.Histogram.record t.worker_stats.events_per_wait 0.0;
    t.state <- Running;
    end_of_loop t

(* Bind a fresh resume closure to the current epoch: one allocation per
   epoch, none per charge.  Resumes scheduled under an older epoch
   still fire (the event set does not change) but do nothing. *)
and arm t =
  let epoch = t.epoch in
  t.resume <- (fun () -> if t.epoch = epoch && t.state <> Crashed then resume t)

and crash t =
  if t.state = Blocked then Sim.cancel t.sim t.timeout;
  t.state <- Crashed;
  t.epoch <- t.epoch + 1;
  arm t;
  (* A dead process stops consuming CPU mid-charge. *)
  let now = Sim.now t.sim in
  if t.cur_end > now then t.cur_end <- max t.cur_start now

let create ~sim ~id ~config ~alloc_fd ~callbacks ?hermes () =
  let t =
    {
      worker_id = id;
      sim;
      cfg = config;
      ep = Kernel.Epoll.create ~worker_id:id;
      alloc_fd;
      callbacks;
      hermes;
      hooks = Option.map (fun rt -> Hermes.Runtime.hooks rt id) hermes;
      sched_at_end =
        (match hermes with
        | Some rt -> (Hermes.Runtime.config rt).Hermes.Config.schedule_at_loop_end
        | None -> false);
      conn_table = Conn_table.create ~dummy:dummy_conn ~capacity:1024 ();
      (* Per-worker band of a billion-based id space: ids stay unique
         within a device and depend only on (worker, adoption order),
         never on cross-worker or cross-device interleaving — the
         cluster's trace-determinism argument needs that. *)
      synthetic_seq = 1_000_000_000 + (id * 1_000_000);
      worker_stats =
        {
          events_per_wait = Stats.Histogram.create ();
          batch_processing = Stats.Histogram.create ();
          blocking = Stats.Histogram.create ();
          loop_entries = 0;
          accepted = 0;
          completed = 0;
          closed = 0;
          resets = 0;
          pool_rejects = 0;
          spurious_wakeups = 0;
          spliced_redirects = 0;
        };
      state = Init;
      timeout = Sim.null_handle;
      wait_started = 0;
      fault_conn = None;
      epoch = 0;
      cpu_committed = 0;
      cur_start = 0;
      cur_end = 0;
      busy_outstanding = 0;
      phase = After_wake;
      woken = false;
      batch_started = 0;
      ev_next = 0;
      ev_count = 0;
      accept_fd = -1;
      accept_left = 0;
      accepted_conn = dummy_pending;
      conn = dummy_conn;
      req = dummy_req;
      reqs_left = 0;
      resume = ignore;
    }
  in
  arm t;
  t

let try_wake t =
  match t.state with
  | Blocked ->
    Sim.cancel t.sim t.timeout;
    let blocked_for = Sim_time.sub (Sim.now t.sim) t.wait_started in
    Stats.Histogram.record t.worker_stats.blocking (float_of_int blocked_for);
    t.state <- Waking;
    t.phase <- After_wake;
    ignore (Sim.schedule_after t.sim ~delay:Cost.wake_latency t.resume);
    true
  | Init | Waking | Running | Crashed -> false

let start t =
  match t.state with
  | Init ->
    (* Data arrivals and dedicated-socket accepts resume a blocked
       worker through the epoll wakeup hook. *)
    Kernel.Epoll.set_wakeup t.ep (fun () -> ignore (try_wake t));
    loop_enter t ~woken:false
  | Blocked | Waking | Running | Crashed -> ()

let fresh_synthetic_id t =
  t.synthetic_seq <- t.synthetic_seq + 1;
  t.synthetic_seq

let adopt_conn t ~tenant_id =
  if t.state = Crashed then invalid_arg "Worker.adopt_conn: worker crashed";
  let id = fresh_synthetic_id t in
  let tuple =
    {
      Netsim.Addr.src_ip = 0x0A000001;
      src_port = 40000 + (id mod 20000);
      dst_ip = 0x0A0000FE;
      dst_port = 0;
    }
  in
  let conn_fd = t.alloc_fd () in
  let conn =
    Conn.make ~id ~fd:conn_fd ~tuple
      ~flow_hash:(Netsim.Flow_hash.of_four_tuple tuple)
      ~tenant_id ~worker_id:t.worker_id
  in
  Conn_table.add t.conn_table ~key:conn_fd ~aux:0 conn;
  Kernel.Epoll.add_conn t.ep ~fd:conn_fd;
  conn_add t 1;
  t.worker_stats.accepted <- t.worker_stats.accepted + 1;
  conn

(* The splice fast path carries this worker's bytes without entering
   its event loop; the device notes each bypassed chunk here so
   per-worker reports can show how much traffic the kernel absorbed. *)
let note_spliced_redirect t =
  t.worker_stats.spliced_redirects <- t.worker_stats.spliced_redirects + 1

let deliver t conn req =
  if Conn.deliver conn req ~now:(Sim.now t.sim) then begin
    Kernel.Epoll.notify_readable t.ep ~fd:conn.Conn.fd ~units:1;
    true
  end
  else false

(* Fault injection: charge the worker [cost] of synthetic event-loop
   work through the normal epoll/deliver path, so the loop stops
   rotating (no [avail_update]) for the duration exactly as a stuck
   drain or GC pause does in production.  The work arrives on a lazily
   created fault connection that bypasses the accept path and the
   accept/conn-count stats — injections must not look like traffic. *)
let fault_conn t =
  match t.fault_conn with
  | Some c -> c
  | None ->
    let id = fresh_synthetic_id t in
    let tuple =
      {
        Netsim.Addr.src_ip = 0x7F000001;
        src_port = 1;
        dst_ip = 0x7F000001;
        dst_port = 0;
      }
    in
    let conn_fd = t.alloc_fd () in
    let conn =
      Conn.make ~id ~fd:conn_fd ~tuple
        ~flow_hash:(Netsim.Flow_hash.of_four_tuple tuple)
        ~tenant_id:(-1) ~worker_id:t.worker_id
    in
    Conn_table.add t.conn_table ~key:conn_fd ~aux:0 conn;
    Kernel.Epoll.add_conn t.ep ~fd:conn_fd;
    (* Counted in the WST conn column (the injected work does occupy a
       connection slot) so the crash/restart repair arithmetic stays
       balanced; accept stats are not touched. *)
    conn_add t 1;
    t.fault_conn <- Some conn;
    conn

let inject_stall t ~req_id ~cost =
  if t.state = Crashed then false
  else
    deliver t (fault_conn t)
      (Request.make ~id:req_id ~op:Request.Websocket_frame ~size:0 ~cost
         ~tenant_id:(-1))

let reset_connection t conn =
  if Conn.is_open conn && Conn_table.mem t.conn_table conn.Conn.fd then
    do_close t conn Conn.Reset

let restart t =
  if t.state = Crashed then begin
    let owned = conns t in
    List.iter
      (fun conn ->
        ignore (Conn_table.remove t.conn_table conn.Conn.fd);
        conn.Conn.state <- Conn.Reset;
        t.worker_stats.resets <- t.worker_stats.resets + 1;
        if Trace.enabled () then
          Trace.emit
            (Trace.Close
               { worker = t.worker_id; conn = conn.Conn.id; reset = true });
        t.callbacks.on_conn_reset conn)
      owned;
    List.iter
      (fun conn -> Kernel.Epoll.remove_conn t.ep ~fd:conn.Conn.fd)
      owned;
    (* The carrier goes with its pending stall and without a trace: no
       client held it.  The next stall makes a fresh one. *)
    let carrier =
      match t.fault_conn with
      | Some c ->
        ignore (Conn_table.remove t.conn_table c.Conn.fd);
        Kernel.Epoll.remove_conn t.ep ~fd:c.Conn.fd;
        1
      | None -> 0
    in
    t.fault_conn <- None;
    Kernel.Epoll.rearm t.ep;
    conn_add t (-(List.length owned + carrier));
    busy_add t (-t.busy_outstanding);
    t.state <- Init;
    start t
  end
