module Conn_table = Engine.Conn_table

type kind = Accept_ready | Readable

type sub = Shared_listen of Socket.t | Dedicated_listen of Socket.t | Conn

type t = {
  owner : int;
  mutable wakeup : unit -> unit;
  (* fd + 1 -> subscription (the table's keys must be positive); the
     entry's [aux] field holds the fd's pushed, undelivered units, so
     readiness dies with the subscription. *)
  subs : sub Conn_table.t;
  (* Shared listening subscriptions in registration order: the first
     [shared_len] cells; the array doubles when full. *)
  mutable shared : (int * Socket.t) array;
  mutable shared_len : int;
  (* FIFO ring of fds with pushed readiness; power-of-two capacity. *)
  mutable ring : int array;
  mutable ring_head : int;
  mutable ring_len : int;
  (* Events of the most recent [wait]. *)
  mutable ev_fd : int array;
  mutable ev_kind : kind array;
  mutable ev_units : int array;
  mutable scan_cost : int;
}

let create ~worker_id =
  {
    owner = worker_id;
    wakeup = (fun () -> ());
    subs = Conn_table.create ~dummy:Conn ~capacity:128 ();
    shared = [||];
    shared_len = 0;
    ring = Array.make 8 0;
    ring_head = 0;
    ring_len = 0;
    ev_fd = [||];
    ev_kind = [||];
    ev_units = [||];
    scan_cost = 0;
  }

let set_wakeup t f = t.wakeup <- f
let find t fd = if fd < 0 then -1 else Conn_table.find_slot t.subs (fd + 1)

let subscribe t ~fd sub ~what =
  if fd < 0 then invalid_arg (what ^ ": negative fd");
  if find t fd >= 0 then invalid_arg (what ^ ": duplicate fd");
  Conn_table.add t.subs ~key:(fd + 1) ~aux:0 sub

let remove_conn t ~fd = if fd >= 0 then ignore (Conn_table.remove t.subs (fd + 1))

let add_conn t ~fd = subscribe t ~fd Conn ~what:"Epoll.add_conn"

let count_subs t p =
  Conn_table.fold t.subs ~init:0 ~f:(fun acc ~key:_ ~slot ->
      if p (Conn_table.payload t.subs slot) then acc + 1 else acc)

let conn_count t = count_subs t (function Conn -> true | _ -> false)

let listening_count t =
  count_subs t (function Shared_listen _ | Dedicated_listen _ -> true | Conn -> false)

let ring_push t fd =
  let cap = Array.length t.ring in
  if t.ring_len = cap then begin
    let ring = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      ring.(i) <- t.ring.((t.ring_head + i) land (cap - 1))
    done;
    t.ring <- ring;
    t.ring_head <- 0
  end;
  t.ring.((t.ring_head + t.ring_len) land (Array.length t.ring - 1)) <- fd;
  t.ring_len <- t.ring_len + 1

let ring_pop t =
  let fd = t.ring.(t.ring_head) in
  t.ring_head <- (t.ring_head + 1) land (Array.length t.ring - 1);
  t.ring_len <- t.ring_len - 1;
  fd

(* Accumulate readiness; an fd joins the FIFO only when it had none. *)
let push t slot fd units =
  let n = Conn_table.aux t.subs slot in
  if n = 0 then ring_push t fd;
  Conn_table.set_aux t.subs slot (n + units)

let notify_readable t ~fd ~units =
  if units < 0 then invalid_arg "Epoll.notify_readable: negative units";
  let slot = find t fd in
  if slot >= 0 && units > 0 then
    match Conn_table.payload t.subs slot with
    | Conn ->
      push t slot fd units;
      t.wakeup ()
    | Shared_listen _ | Dedicated_listen _ -> ()

(* A dedicated socket's readiness hook: one queued connection. *)
let accept_ready t fd =
  let slot = find t fd in
  if slot >= 0 then begin
    push t slot fd 1;
    t.wakeup ()
  end

let add_listening t ~fd ~socket ~shared =
  if shared then begin
    subscribe t ~fd (Shared_listen socket) ~what:"Epoll.add_listening";
    let entry = (fd, socket) in
    let cap = Array.length t.shared in
    if t.shared_len = cap then begin
      let grown = Array.make (max 4 (2 * cap)) entry in
      Array.blit t.shared 0 grown 0 cap;
      t.shared <- grown
    end;
    t.shared.(t.shared_len) <- entry;
    t.shared_len <- t.shared_len + 1
  end
  else begin
    subscribe t ~fd (Dedicated_listen socket) ~what:"Epoll.add_listening";
    Socket.set_ready socket (fun () -> accept_ready t fd)
  end

let record t i fd kind units =
  t.ev_fd.(i) <- fd;
  t.ev_kind.(i) <- kind;
  t.ev_units.(i) <- units

let wait t ~max_events =
  if max_events <= 0 then invalid_arg "Epoll.wait: max_events must be positive";
  if Array.length t.ev_fd < max_events then begin
    t.ev_fd <- Array.make max_events 0;
    t.ev_kind <- Array.make max_events Readable;
    t.ev_units <- Array.make max_events 0
  end;
  let count = ref 0 in
  (* Pushed readiness first, FIFO over fds.  A stale ring entry (its
     readiness already delivered, or removed with its subscription) is
     skipped; an fd removed and re-added delivers at its oldest
     surviving ring position. *)
  while !count < max_events && t.ring_len > 0 do
    let fd = ring_pop t in
    let slot = find t fd in
    if slot >= 0 then begin
      let n = Conn_table.aux t.subs slot in
      if n > 0 then begin
        (* Readiness is coalesced like real epoll: one event carrying
           the number of queued connections or request units. *)
        Conn_table.set_aux t.subs slot 0;
        let kind =
          match Conn_table.payload t.subs slot with
          | Conn -> Readable
          | Shared_listen _ | Dedicated_listen _ -> Accept_ready
        in
        record t !count fd kind n;
        incr count
      end
    end
  done;
  (* Level-triggered scan over shared listening sockets. *)
  for i = 0 to t.shared_len - 1 do
    let fd, sock = t.shared.(i) in
    let backlog = Socket.backlog_len sock in
    if !count < max_events && backlog > 0 then begin
      record t !count fd Accept_ready backlog;
      incr count
    end
  done;
  t.scan_cost <- t.shared_len;
  let n = !count in
  if n > 0 && Trace.enabled () then
    Trace.emit
      (Trace.Epoll_dispatch
         {
           worker = t.owner;
           events =
             List.init n (fun i ->
                 let kind =
                   match t.ev_kind.(i) with
                   | Accept_ready -> Trace.Accept_io
                   | Readable -> Trace.Read_io
                 in
                 (t.ev_fd.(i), kind, t.ev_units.(i)));
         });
  n

let event_fd t i = t.ev_fd.(i)
let event_kind t i = t.ev_kind.(i)
let event_units t i = t.ev_units.(i)

let listen_socket t ~fd =
  let slot = find t fd in
  if slot < 0 then raise Not_found;
  match Conn_table.payload t.subs slot with
  | Shared_listen s | Dedicated_listen s -> s
  | Conn -> raise Not_found

let last_scan_cost t = t.scan_cost

let pending_units t =
  Conn_table.fold t.subs ~init:0 ~f:(fun acc ~key:_ ~slot ->
      acc + Conn_table.aux t.subs slot)

let rearm t =
  t.ring_len <- 0;
  Conn_table.iter t.subs (fun ~key ~slot ->
      Conn_table.set_aux t.subs slot 0;
      match Conn_table.payload t.subs slot with
      | Dedicated_listen sock ->
        let backlog = Socket.backlog_len sock in
        if backlog > 0 then push t slot (key - 1) backlog
      | Shared_listen _ | Conn -> ())
