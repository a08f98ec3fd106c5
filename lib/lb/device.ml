module Sim = Engine.Sim
module Sim_time = Engine.Sim_time
module Conn_table = Engine.Conn_table

type mode =
  | Exclusive
  | Epoll_rr
  | Wake_all
  | Io_uring_fifo
  | Reuseport
  | Hermes of Hermes.Config.t
  | Splice

let mode_name = function
  | Exclusive -> Hermes.Config.Mode.to_string Hermes.Config.Mode.Exclusive
  | Epoll_rr -> Hermes.Config.Mode.to_string Hermes.Config.Mode.Epoll_rr
  | Wake_all -> Hermes.Config.Mode.to_string Hermes.Config.Mode.Wake_all
  | Io_uring_fifo -> Hermes.Config.Mode.to_string Hermes.Config.Mode.Io_uring_fifo
  | Reuseport -> Hermes.Config.Mode.to_string Hermes.Config.Mode.Reuseport
  | Hermes _ -> Hermes.Config.Mode.to_string Hermes.Config.Mode.Hermes
  | Splice -> Hermes.Config.Mode.to_string Hermes.Config.Mode.Splice

let of_mode ?(hermes = Hermes.Config.default) m =
  match m with
  | Hermes.Config.Mode.Hermes -> Hermes hermes
  | Hermes.Config.Mode.Exclusive -> Exclusive
  | Hermes.Config.Mode.Reuseport -> Reuseport
  | Hermes.Config.Mode.Epoll_rr -> Epoll_rr
  | Hermes.Config.Mode.Wake_all -> Wake_all
  | Hermes.Config.Mode.Io_uring_fifo -> Io_uring_fifo
  | Hermes.Config.Mode.Splice -> Splice

type conn_events = {
  established : Conn.t -> unit;
  request_done : Conn.t -> Request.t -> unit;
  closed : Conn.t -> unit;
  reset : Conn.t -> unit;
  dispatch_failed : unit -> unit;
}

let null_conn_events =
  {
    established = (fun _ -> ());
    request_done = (fun _ _ -> ());
    closed = (fun _ -> ());
    reset = (fun _ -> ());
    dispatch_failed = (fun () -> ());
  }

type port_plumbing =
  | Shared of { socket : Kernel.Socket.t; wq : Kernel.Waitqueue.t }
  | Dedicated of {
      group : Kernel.Reuseport.t;
      sockarray : Kernel.Ebpf_maps.Sockarray.t;
    }

type sample = { at : Sim_time.t; util : float array; conns : int array }

let null_sample = { at = 0; util = [||]; conns = [||] }

type t = {
  sim : Sim.t;
  rng : Engine.Rng.t;
  dev_mode : mode;
  tenant_arr : Netsim.Tenant.t array;
  mutable workers_arr : Worker.t array;
  ports : (int, port_plumbing) Hashtbl.t; (* dport -> plumbing *)
  isolated : bool array;
  (* conn seq -> callbacks; the SYN timestamp rides in the table's
     fixed-width [aux] field, so an in-flight connection costs one
     payload pointer on the OCaml heap and nothing else. *)
  metas : conn_events Conn_table.t;
  hermes_rt : Hermes.Runtime.t option;
  splice_rt : Splice.t option;
  mutable next_seq : int;
  mutable next_fd : int;
  mutable next_id : int;
  lat : Stats.Histogram.t;
  estab_lat : Stats.Histogram.t;
  mutable completed_count : int;
  mutable drop_count : int;
  mutable reset_count : int;
  (* Bounded sample ring (the most recent [sample_retain] samples), so
     unbounded soaks keep bounded memory. *)
  mutable sample_buf : sample array;
  mutable sample_len : int;
  mutable sample_pos : int;
  mutable sampling_prev : Sim_time.t array;
  (* per-tenant accounting (indexed like [tenant_arr]) for overload
     attribution: connection arrivals and CPU consumed *)
  tenant_conns : int array;
  tenant_cpu : Sim_time.t array;
  tenant_slots : unit Conn_table.t;  (* tenant id + 1 -> index, in aux *)
  quarantined : bool array;
  vip : Netsim.Addr.ip;
  mutable probe_loss : bool;  (* injected probe-loss burst in progress *)
}

let sim t = t.sim
let device_mode t = t.dev_mode
let worker_count t = Array.length t.workers_arr
let worker t i = t.workers_arr.(i)
let workers t = t.workers_arr
let tenants t = t.tenant_arr
let hermes_runtime t = t.hermes_rt

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let alloc_fd t () =
  t.next_fd <- t.next_fd + 1;
  t.next_fd

(* Synthetic connections (fault carriers, adopted conns) never enter
   [metas]; their lookups return the absent slot and every handler
   below degrades to a no-op, as before. *)
let meta_slot t conn = Conn_table.find_slot t.metas conn.Conn.id

(* Index into [tenant_arr], or -1 (synthetic carriers have id -1). *)
let tenant_index t tenant_id =
  if tenant_id < 0 then -1
  else
    let slot = Conn_table.find_slot t.tenant_slots (tenant_id + 1) in
    if slot < 0 then -1 else Conn_table.aux t.tenant_slots slot

(* Splice handoff: once the worker has accepted, install the
   connection into the sockmap so subsequent payload bypasses it.
   Only [metas] connections attach — synthetic fault carriers carry
   billion-band ids and must never touch the splice plane. *)
let splice_attach t conn =
  match t.splice_rt with
  | None -> ()
  | Some sp -> (
    match
      Splice.attach sp ~conn:conn.Conn.id ~flow_hash:conn.Conn.flow_hash
        ~worker:conn.Conn.worker_id
    with
    | None -> ()
    | Some key ->
      if Trace.enabled () then
        Trace.emit
          (Trace.Splice_attach
             { conn = conn.Conn.id; worker = conn.Conn.worker_id; key }))

let splice_teardown t ~conn ~reason =
  match t.splice_rt with
  | None -> ()
  | Some sp -> (
    match Splice.teardown sp ~conn with
    | None -> ()
    | Some (key, worker) ->
      if Trace.enabled () then
        Trace.emit (Trace.Splice_teardown { conn; worker; key; reason }))

let handle_established t conn =
  let i = tenant_index t conn.Conn.tenant_id in
  if i >= 0 then t.tenant_conns.(i) <- t.tenant_conns.(i) + 1;
  let slot = meta_slot t conn in
  if slot >= 0 then begin
    Stats.Histogram.record t.estab_lat
      (float_of_int (Sim_time.sub (Sim.now t.sim) (Conn_table.aux t.metas slot)));
    splice_attach t conn;
    (Conn_table.payload t.metas slot).established conn
  end

(* One completed work request, by a worker or by the splice path:
   its latency, the completion, the [cpu] charged to its tenant, then
   the client's callback.  tenant_id < 0 marks a fault-injection
   carrier: synthetic stall work must not count as served traffic or
   skew the latency tail. *)
let request_done t conn req ~cpu =
  if conn.Conn.tenant_id >= 0 then begin
    Stats.Histogram.record t.lat
      (float_of_int
         (Sim_time.sub (Sim.now t.sim) req.Request.arrival + Cost.client_rtt));
    t.completed_count <- t.completed_count + 1;
    let i = tenant_index t conn.Conn.tenant_id in
    if i >= 0 then t.tenant_cpu.(i) <- Sim_time.add t.tenant_cpu.(i) cpu;
    let slot = meta_slot t conn in
    if slot >= 0 then (Conn_table.payload t.metas slot).request_done conn req
  end

(* Removing an entry resets its payload to the dummy, so the callbacks
   must be read out before the remove. *)
let handle_closed t conn =
  splice_teardown t ~conn:conn.Conn.id ~reason:Trace.By_close;
  let slot = meta_slot t conn in
  if slot >= 0 then begin
    let events = Conn_table.payload t.metas slot in
    ignore (Conn_table.remove t.metas conn.Conn.id);
    events.closed conn
  end

let handle_reset t conn =
  splice_teardown t ~conn:conn.Conn.id ~reason:Trace.By_reset;
  if conn.Conn.tenant_id >= 0 then t.reset_count <- t.reset_count + 1;
  let slot = meta_slot t conn in
  if slot >= 0 then begin
    let events = Conn_table.payload t.metas slot in
    ignore (Conn_table.remove t.metas conn.Conn.id);
    events.reset conn
  end

let wq_mode = function
  | Exclusive -> Kernel.Waitqueue.Lifo_exclusive
  | Epoll_rr -> Kernel.Waitqueue.Roundrobin_exclusive
  | Wake_all -> Kernel.Waitqueue.Wake_all
  | Io_uring_fifo -> Kernel.Waitqueue.Fifo_exclusive
  | Reuseport | Hermes _ | Splice -> invalid_arg "wq_mode: not a shared mode"

let is_shared = function
  | Exclusive | Epoll_rr | Wake_all | Io_uring_fifo -> true
  | Reuseport | Hermes _ | Splice -> false

(* Every listening socket's accept-queue bound ([listen(2)]'s
   backlog). *)
let backlog = 4096

(* The worker becomes the socket's watcher: a SYN the group steers
   here readies its epoll. *)
let bind_dedicated t ~port ~group ~sockarray ~worker_id =
  let sock = Kernel.Socket.create_listen ~port ~backlog () in
  Kernel.Reuseport.bind group ~slot:worker_id ~socket:sock;
  Kernel.Ebpf_maps.Sockarray.set sockarray worker_id sock;
  Worker.listen_dedicated t.workers_arr.(worker_id) ~socket:sock

(* Close a listening socket: each connection still in its queue
   (handshake complete, never accepted) fails its dispatch, counted as
   a reset ([reset], a worker leaving service) or as a drop. *)
let close_listener t sock ~reset =
  List.iter
    (fun (p : Kernel.Socket.pending_conn) ->
      let slot = Conn_table.find_slot t.metas p.seq in
      if slot >= 0 then begin
        let events = Conn_table.payload t.metas slot in
        ignore (Conn_table.remove t.metas p.seq);
        if reset then t.reset_count <- t.reset_count + 1
        else t.drop_count <- t.drop_count + 1;
        events.dispatch_failed ()
      end)
    (Kernel.Socket.close sock)

(* Undo [bind_dedicated]: the worker's socket leaves the group and the
   sockarray, its epoll subscription goes (EPOLL_CTL_DEL: a recovery
   registers a fresh socket), and the socket closes. *)
let unbind_dedicated t ~group ~sockarray ~worker_id ~reset =
  match Kernel.Reuseport.member group ~slot:worker_id with
  | None -> ()
  | Some sock ->
    Kernel.Reuseport.unbind group ~slot:worker_id;
    Kernel.Ebpf_maps.Sockarray.clear sockarray worker_id;
    Worker.unlisten_dedicated t.workers_arr.(worker_id) ~socket:sock;
    close_listener t sock ~reset

let create ~sim ~rng ~mode ~workers ~tenants ?worker_config
    ?(hermes_group_size = 64) ?(hermes_select_mode = Hermes.Groups.By_flow_hash)
    ?(stagger_registration = false) ?(splice_slots = 4096) ?(splice_copy = 0) ()
    =
  if workers <= 0 then invalid_arg "Device.create: workers must be positive";
  if Array.length tenants = 0 then invalid_arg "Device.create: no tenants";
  let hermes_rt =
    match mode with
    | Hermes config ->
      Some
        (Hermes.Runtime.create ~group_size:hermes_group_size
           ~select_mode:hermes_select_mode ~config ~workers ())
    | Exclusive | Epoll_rr | Wake_all | Io_uring_fifo | Reuseport | Splice ->
      None
  in
  let splice_rt =
    match mode with
    | Splice -> Some (Splice.create ~workers ~slots:splice_slots ~copy:splice_copy ())
    | Exclusive | Epoll_rr | Wake_all | Io_uring_fifo | Reuseport | Hermes _ ->
      None
  in
  let worker_config = Option.value worker_config ~default:Worker.default_config in
  let t =
    {
      sim;
      rng;
      dev_mode = mode;
      tenant_arr = tenants;
      workers_arr = [||];
      ports = Hashtbl.create 64;
      isolated = Array.make workers false;
      metas = Conn_table.create ~dummy:null_conn_events ~capacity:4096 ();
      hermes_rt;
      splice_rt;
      next_seq = 0;
      next_fd = 0;
      next_id = 0;
      lat = Stats.Histogram.create ();
      estab_lat = Stats.Histogram.create ();
      completed_count = 0;
      drop_count = 0;
      reset_count = 0;
      sample_buf = [||];
      sample_len = 0;
      sample_pos = 0;
      sampling_prev = Array.make workers 0;
      tenant_conns = Array.make (Array.length tenants) 0;
      tenant_cpu = Array.make (Array.length tenants) 0;
      tenant_slots =
        (let tbl = Conn_table.create ~dummy:() ~capacity:(2 * Array.length tenants) () in
         Array.iteri
           (fun i (tn : Netsim.Tenant.t) ->
             if tn.id < 0 then invalid_arg "Device.create: negative tenant id";
             Conn_table.add tbl ~key:(tn.id + 1) ~aux:i ())
           tenants;
         tbl);
      quarantined = Array.make (Array.length tenants) false;
      vip = Netsim.Addr.ip_of_string "10.200.0.1";
      probe_loss = false;
    }
  in
  (* Full-arity closures: a partial application would go through
     caml_curry on every call. *)
  let callbacks =
    {
      Worker.on_established = (fun conn -> handle_established t conn);
      on_request_done = (fun conn req -> request_done t conn req ~cpu:req.Request.cost);
      on_conn_closed = (fun conn -> handle_closed t conn);
      on_conn_reset = (fun conn -> handle_reset t conn);
    }
  in
  t.workers_arr <-
    Array.init workers (fun i ->
        Worker.create ~sim ~id:i ~config:worker_config ~alloc_fd:(alloc_fd t)
          ~callbacks ?hermes:hermes_rt ());
  (* Per-tenant-port plumbing. *)
  Array.iteri
    (fun port_idx (tn : Netsim.Tenant.t) ->
      let port = tn.dport in
      if is_shared mode then begin
        let socket = Kernel.Socket.create_listen ~port ~backlog () in
        let wq = Kernel.Waitqueue.create (wq_mode mode) in
        Kernel.Socket.set_ready socket (fun () -> ignore (Kernel.Waitqueue.wake wq));
        for i = 0 to workers - 1 do
          let w = if stagger_registration then (i + port_idx) mod workers else i in
          Worker.listen_shared t.workers_arr.(w) ~socket;
          Kernel.Waitqueue.register wq ~id:w ~try_wake:(fun () ->
              Worker.try_wake t.workers_arr.(w))
        done;
        Hashtbl.replace t.ports port (Shared { socket; wq })
      end
      else begin
        let group = Kernel.Reuseport.create ~port ~slots:workers in
        let sockarray =
          Kernel.Ebpf_maps.Sockarray.create
            ~name:(Printf.sprintf "M_socket_p%d" port)
            ~size:workers
        in
        for w = 0 to workers - 1 do
          bind_dedicated t ~port ~group ~sockarray ~worker_id:w
        done;
        (match hermes_rt with
        | Some rt ->
          let prog = Hermes.Runtime.make_prog rt ~m_socket:sockarray in
          let cfg = Hermes.Runtime.config rt in
          if cfg.Hermes.Config.kernel_jit then
            match Kernel.Ebpf_vm.compile prog with
            | Error msg -> invalid_arg ("Device.create: " ^ msg)
            | Ok code -> (
              match
                Kernel.Reuseport.attach group ~name:prog.Kernel.Ebpf.name code
              with
              | Ok () -> ()
              | Error e ->
                invalid_arg
                  ("Device.create: " ^ Kernel.Verifier.error_to_string e))
          else
            Kernel.Reuseport.attach_ebpf group ~name:prog.Kernel.Ebpf.name
              (Kernel.Ebpf.verify_exn prog)
        | None -> ());
        Hashtbl.replace t.ports port (Dedicated { group; sockarray })
      end)
    tenants;
  t

let start t = Array.iter Worker.start t.workers_arr

let dispatch_failed t seq events =
  ignore (Conn_table.remove t.metas seq);
  t.drop_count <- t.drop_count + 1;
  events.dispatch_failed ()

(* The socket's readiness hook wakes its watcher: the worker that owns
   a dedicated socket, the wait queue of a shared one. *)
let push_syn t sock (pending : Kernel.Socket.pending_conn) events =
  match Kernel.Socket.push sock pending with
  | `Dropped -> dispatch_failed t pending.seq events
  | `Queued -> ()

let connect t ~tenant ~events =
  let tn = t.tenant_arr.(tenant) in
  if t.quarantined.(tenant) then begin
    t.drop_count <- t.drop_count + 1;
    events.dispatch_failed ()
  end
  else begin
  t.next_seq <- t.next_seq + 1;
  let seq = t.next_seq in
  let tuple =
    {
      Netsim.Addr.src_ip = Engine.Rng.int t.rng 0x3FFFFFFF;
      src_port = 1024 + Engine.Rng.int t.rng 64511;
      dst_ip = t.vip;
      dst_port = tn.dport;
    }
  in
  let flow_hash = Netsim.Flow_hash.of_four_tuple tuple in
  Conn_table.add t.metas ~key:seq ~aux:(Sim.now t.sim) events;
  let pending = { Kernel.Socket.seq; tuple; flow_hash; tenant_id = tn.id } in
  match Hashtbl.find_opt t.ports tn.dport with
  | None -> dispatch_failed t seq events
  | Some (Shared { socket; _ }) -> push_syn t socket pending events
  | Some (Dedicated { group; _ }) -> (
    match Kernel.Reuseport.select group ~flow_hash with
    | None -> dispatch_failed t seq events
    | Some sock -> push_syn t sock pending events)
  end

(* Splice forwards payload; session-level work (handshakes,
   compression, routing) still needs the userspace proxy even on an
   attached connection — only the pure-forwarding ops bypass. *)
let spliceable_req req =
  match req.Request.kind with
  | Request.Work (Request.Plain_proxy | Request.Websocket_frame) -> true
  | Request.Work
      ( Request.Ssl_handshake | Request.Ssl_record | Request.Compress
      | Request.Regex_route | Request.Protocol_translate )
  | Request.Close ->
    false

let send t conn req =
  match t.splice_rt with
  | Some sp
    when spliceable_req req && Conn.is_open conn
         && Splice.is_attached sp ~conn:conn.Conn.id -> (
    match
      Splice.decide sp ~conn:conn.Conn.id ~flow_hash:conn.Conn.flow_hash
        ~dst_port:conn.Conn.tuple.Netsim.Addr.dst_port ~bytes:req.Request.size
    with
    | Splice.Fallback ->
      Worker.deliver t.workers_arr.(conn.Conn.worker_id) conn req
    | Splice.Redirect { conn = hit; worker; copied; cycles } ->
      req.Request.arrival <- Sim.now t.sim;
      if Trace.enabled () then
        Trace.emit
          (Trace.Splice_redirect
             { conn = hit; worker; bytes = req.Request.size; copied });
      Worker.note_spliced_redirect t.workers_arr.(worker);
      (* The chunk completes without the worker: the device itself
         closes the latency/attribution loop after the in-kernel
         forwarding delay, charging the tenant the kernel time actually
         spent instead of the proxy cost it avoided.  Only attached
         connections get here, and those are client connections. *)
      let kernel_time = Cost.cycles_to_time cycles in
      ignore
        (Sim.schedule_after t.sim ~delay:kernel_time (fun () ->
             if Conn.is_open conn then begin
               conn.Conn.requests_done <- conn.Conn.requests_done + 1;
               request_done t conn req ~cpu:kernel_time
             end));
      true)
  | Some _ | None -> Worker.deliver t.workers_arr.(conn.Conn.worker_id) conn req

let close_conn t conn =
  let marker = Request.close_marker ~id:(fresh_id t) ~tenant_id:conn.Conn.tenant_id in
  ignore (send t conn marker)

let probe_once t ~tenant ~timeout ~on_result =
  let started = Sim.now t.sim in
  let tn = t.tenant_arr.(tenant) in
  let finished = ref false in
  let timeout_handle = ref None in
  (* [finish] is the single completion funnel.  Every path — timeout,
     reply, reset, synchronous dispatch_failed (which can run before
     [connect] even returns) — lands here; the [finished] flag plus
     the timeout cancellation make a race between the timeout event
     and any other path single-fire in both orders. *)
  let finish result =
    if not !finished then begin
      finished := true;
      (match !timeout_handle with
      | Some h -> Sim.cancel t.sim h
      | None -> ());
      on_result result
    end
  in
  timeout_handle :=
    Some
      (Sim.schedule_after t.sim ~delay:timeout (fun () ->
           if (not !finished) && Trace.enabled () then
             Trace.emit (Trace.Probe_timeout { tenant = tn.id; after = timeout });
           finish None));
  let events =
    {
      established =
        (fun conn ->
          let req =
            Request.make ~id:(fresh_id t) ~op:Request.Plain_proxy ~size:64
              ~cost:(Sim_time.us 10) ~tenant_id:tn.id
          in
          ignore (send t conn req));
      request_done =
        (fun conn _ ->
          finish (Some (Sim_time.sub (Sim.now t.sim) started));
          close_conn t conn);
      closed = (fun _ -> ());
      reset = (fun _ -> finish None);
      dispatch_failed = (fun () -> finish None);
    }
  in
  (* Under an injected probe-loss burst the probe SYN vanishes on the
     wire: nothing is dispatched and the timeout is the only path. *)
  if not t.probe_loss then connect t ~tenant ~events

let crash_worker t w = Worker.crash t.workers_arr.(w)

(* ------------------------------------------------------------------ *)
(* Fault-injection hooks (driven by Faults.Inject through the plan)     *)

let set_probe_loss t lost = t.probe_loss <- lost
let probe_lost t = t.probe_loss

let iter_groups t f =
  Hashtbl.iter
    (fun _port plumbing ->
      match plumbing with
      | Shared _ -> ()
      | Dedicated { group; _ } -> f group)
    t.ports

let fail_ebpf_prog t = iter_groups t (fun g -> Kernel.Reuseport.set_prog_fault g true)
let restore_ebpf_prog t = iter_groups t (fun g -> Kernel.Reuseport.set_prog_fault g false)

let set_map_sync_delay t delay =
  match t.hermes_rt with
  | None -> ()
  | Some rt ->
    Hermes.Runtime.set_sync_defer rt
      (Option.map
         (fun d k -> ignore (Sim.schedule_after t.sim ~delay:d k))
         delay)

let splice t = t.splice_rt

let set_splice_desync t ~worker v =
  match t.splice_rt with
  | None -> ()
  | Some sp -> Splice.set_desynced sp ~worker v

let set_splice_strict t v =
  match t.splice_rt with None -> () | Some sp -> Splice.set_strict sp v

(* Accept-queue overflow: clamp the victim's listening sockets to a
   one-deep backlog so handshakes start dropping.  Dedicated modes
   clamp worker [w]'s socket on every port; shared modes have no
   per-worker socket, so the port sockets themselves are clamped (the
   blast radius production sees when somebody fat-fingers somaxconn). *)
let clamp_backlog t ~worker limit =
  Hashtbl.iter
    (fun _port plumbing ->
      match plumbing with
      | Shared { socket; _ } -> Kernel.Socket.set_backlog socket limit
      | Dedicated { group; _ } -> (
        match Kernel.Reuseport.member group ~slot:worker with
        | Some sock -> Kernel.Socket.set_backlog sock limit
        | None -> ()))
    t.ports

let overflow_accept_queue t ~worker = clamp_backlog t ~worker 1
let restore_accept_queue t ~worker = clamp_backlog t ~worker backlog

(* Sweep the splice plane for a worker leaving service: every sockmap
   entry targeting it must go before its traffic can be redirected
   into a dead socket.  (Under an injected desync the deletes are
   lost — that is the fault.) *)
let splice_sweep t ~worker ~reason =
  match t.splice_rt with
  | None -> ()
  | Some sp ->
    List.iter
      (fun (conn, key) ->
        if Trace.enabled () then
          Trace.emit (Trace.Splice_teardown { conn; worker; key; reason }))
      (Splice.teardown_worker sp ~worker)

let isolate_worker t w =
  if not t.isolated.(w) then begin
    t.isolated.(w) <- true;
    splice_sweep t ~worker:w ~reason:Trace.By_isolate;
    (match t.hermes_rt with
    | Some rt -> Hermes.Runtime.mark_dead rt ~worker:w
    | None -> ());
    Hashtbl.iter
      (fun _port plumbing ->
        match plumbing with
        | Shared { wq; _ } -> Kernel.Waitqueue.unregister wq ~id:w
        | Dedicated { group; sockarray } ->
          unbind_dedicated t ~group ~sockarray ~worker_id:w ~reset:true)
      t.ports
  end

let quarantined_port t port =
  Array.exists2
    (fun (tn : Netsim.Tenant.t) quarantined -> quarantined && tn.dport = port)
    t.tenant_arr t.quarantined

let recover_worker t w =
  (* Before the restart resets its connections: a restarted process
     has fresh sockets, so any surviving sockmap entry is stale by
     definition. *)
  splice_sweep t ~worker:w ~reason:Trace.By_restart;
  Worker.restart t.workers_arr.(w);
  if t.isolated.(w) then begin
    t.isolated.(w) <- false;
    Hashtbl.iter
      (fun port plumbing ->
        match plumbing with
        | Shared { wq; _ } ->
          Kernel.Waitqueue.register wq ~id:w ~try_wake:(fun () ->
              Worker.try_wake t.workers_arr.(w))
        | Dedicated { group; sockarray } ->
          (* a quarantined tenant's port stays closed *)
          if not (quarantined_port t port) then
            bind_dedicated t ~port ~group ~sockarray ~worker_id:w)
      t.ports
  end

let inject_hang t ~worker ~duration =
  ignore (Worker.inject_stall t.workers_arr.(worker) ~req_id:(fresh_id t) ~cost:duration)

let cpu_busy_per_worker t = Array.map Worker.cpu_busy t.workers_arr

let utilization_since t prev ~window =
  if window <= 0 then invalid_arg "Device.utilization_since: window must be positive";
  Array.mapi
    (fun i w ->
      let delta = Sim_time.sub (Worker.cpu_busy w) prev.(i) in
      Float.min 1.0 (float_of_int delta /. float_of_int window))
    t.workers_arr

let enable_degradation t ~policy ~check_every =
  let prev = ref (cpu_busy_per_worker t) in
  let rec tick () =
    let util = utilization_since t !prev ~window:check_every in
    prev := cpu_busy_per_worker t;
    let conn_counts = Array.map Worker.conn_count t.workers_arr in
    let shed_plan = Hermes.Degrade.plan ~policy ~utilization:util ~conn_counts in
    List.iter
      (fun { Hermes.Degrade.worker = w; shed } ->
        let victims = Worker.conns t.workers_arr.(w) in
        List.iteri
          (fun i conn ->
            if i < shed then Worker.reset_connection t.workers_arr.(w) conn)
          victims)
      shed_plan;
    ignore (Sim.schedule_after t.sim ~delay:check_every tick)
  in
  ignore (Sim.schedule_after t.sim ~delay:check_every tick)

let push_sample t s =
  let cap = Array.length t.sample_buf in
  if t.sample_len < cap then t.sample_len <- t.sample_len + 1;
  t.sample_buf.(t.sample_pos) <- s;
  t.sample_pos <- (t.sample_pos + 1) mod cap

let sample_retain = 4096

let enable_sampling t ~every () =
  t.sample_buf <- Array.make sample_retain null_sample;
  t.sample_len <- 0;
  t.sample_pos <- 0;
  t.sampling_prev <- cpu_busy_per_worker t;
  let rec tick () =
    let util = utilization_since t t.sampling_prev ~window:every in
    t.sampling_prev <- cpu_busy_per_worker t;
    let conns = Array.map Worker.conn_count t.workers_arr in
    push_sample t { at = Sim.now t.sim; util; conns };
    ignore (Sim.schedule_after t.sim ~delay:every tick)
  in
  ignore (Sim.schedule_after t.sim ~delay:every tick)

let samples t =
  (* Oldest first: when the ring has wrapped, the oldest retained
     sample sits at the write position. *)
  let cap = Array.length t.sample_buf in
  let start = if t.sample_len = cap then t.sample_pos else 0 in
  List.init t.sample_len (fun i -> t.sample_buf.((start + i) mod cap))

let latency_hist t = t.lat
let establishment_hist t = t.estab_lat
let completed t = t.completed_count
let dropped t = t.drop_count
let conns_reset t = t.reset_count

let accepted_per_worker t =
  Array.map (fun w -> (Worker.stats w).Worker.accepted) t.workers_arr

let conns_per_worker t = Array.map Worker.conn_count t.workers_arr

let reset_measurements t =
  Stats.Histogram.reset t.lat;
  Stats.Histogram.reset t.estab_lat;
  t.completed_count <- 0;
  t.drop_count <- 0;
  t.reset_count <- 0;
  t.sample_len <- 0;
  t.sample_pos <- 0

let kernel_dispatch_cycles t =
  Hashtbl.fold
    (fun _ plumbing acc ->
      match plumbing with
      | Shared _ -> acc
      | Dedicated { group; _ } ->
        acc + (Kernel.Reuseport.stats group).Kernel.Reuseport.prog_cycles)
    t.ports 0

type tenant_stats = {
  tenant : int;  (* index into [tenants] *)
  new_conns : int;
  cpu_consumed : Sim_time.t;
}

let tenant_report t =
  Array.mapi
    (fun i _ ->
      { tenant = i; new_conns = t.tenant_conns.(i); cpu_consumed = t.tenant_cpu.(i) })
    t.tenant_arr

let reset_tenant_report t =
  Array.fill t.tenant_conns 0 (Array.length t.tenant_conns) 0;
  Array.fill t.tenant_cpu 0 (Array.length t.tenant_cpu) 0

let is_quarantined t ~tenant = t.quarantined.(tenant)

let quarantine_tenant t ~tenant =
  if not t.quarantined.(tenant) then begin
    t.quarantined.(tenant) <- true;
    (* migrate the tenant to the sandbox: its established connections
       are reset here and re-served by the (unmodelled) sandbox pool *)
    let tenant_id = t.tenant_arr.(tenant).Netsim.Tenant.id in
    Array.iter
      (fun w ->
        List.iter
          (fun conn ->
            if conn.Conn.tenant_id = tenant_id then Worker.reset_connection w conn)
          (Worker.conns w))
      t.workers_arr;
    (* drain SYNs already queued on its port *)
    match Hashtbl.find_opt t.ports t.tenant_arr.(tenant).Netsim.Tenant.dport with
    | Some (Shared { socket; _ }) -> close_listener t socket ~reset:false
    | Some (Dedicated { group; sockarray }) ->
      for worker_id = 0 to Kernel.Reuseport.slots group - 1 do
        unbind_dedicated t ~group ~sockarray ~worker_id ~reset:false
      done
    | None -> ()
  end
