module Sim = Engine.Sim
module Sim_time = Engine.Sim_time

(* Each member device runs on a private simulator and records into a
   private trace state; the caller's simulator is the control clock.
   Every cluster<->device interaction takes one network hop, scheduled
   straight into the target simulator.  A recurring tick on the control
   simulator runs every member, in slot order, to the control clock:
   members sit idle between ticks, so a hop from the control side lands
   in a member's queue exactly where a delivery at the next tick would,
   and hops back from the members enter the control queue in
   (time, slot, member order).  Schedules and trace streams are
   functions of the slot decomposition alone. *)

let hop = Lb.Cost.client_rtt

type member = {
  slot : int;
  sim : Sim.t;
  trace : Trace.state;
  dev : Lb.Device.t;
  mutable draining : bool;
  mutable connecting : int;
      (* connects handed to the member and not yet answered with
         [established] or [dispatch_failed] at the control side *)
}

type t = {
  sim : Sim.t;  (* the control clock; driven by the caller *)
  rng : Engine.Rng.t;
  tenants : Netsim.Tenant.t array;
  default_workers : int;
  mutable members : member list;  (* slot order *)
  mutable horizon : Sim_time.t;  (* the clock every member has run to *)
  mutable pending : (int * Trace.record) list;
      (* (slot, record) recorded since the last tick, newest first *)
  mutable next_slot : int;
  mutable next_req_id : int;
  mutable removed_completed : int;
  mutable removed_dropped : int;
}

let with_state state f =
  let saved = Trace.swap_state state in
  Fun.protect ~finally:(fun () -> ignore (Trace.swap_state saved)) f

let spawn t ~mode ~workers =
  let slot = t.next_slot in
  t.next_slot <- slot + 1;
  (* A member records only when the caller does: untraced runs pay
     nothing for it. *)
  let sink =
    if Trace.enabled () then
      Some
        {
          Trace.write = (fun r -> t.pending <- (slot, r) :: t.pending);
          close = ignore;
        }
    else None
  in
  let sim = Sim.create () and trace = Trace.make_state sink in
  (* A device joining mid-run starts at the fleet's horizon: align the
     empty clock first so creation-time events stamp there. *)
  let dev =
    with_state trace (fun () ->
        Sim.run_until sim ~limit:t.horizon;
        let dev =
          Lb.Device.create ~sim ~rng:(Engine.Rng.split t.rng) ~mode ~workers
            ~tenants:t.tenants ()
        in
        Lb.Device.start dev;
        dev)
  in
  t.members <-
    t.members @ [ { slot; sim; trace; dev; draining = false; connecting = 0 } ];
  slot

(* Forward the members' new records into the caller's recorder, which
   stamps [seq].  Sorting one tick's records gives the order of one
   global sort: they are all timed after the previous tick, except the
   creation records of a member spawned since, which carry the previous
   tick's time but the largest slot, so they still follow everything
   already forwarded. *)
let flush t =
  match t.pending with
  | [] -> ()
  | pending ->
    t.pending <- [];
    let order (slot_a, (a : Trace.record)) (slot_b, (b : Trace.record)) =
      match compare a.time b.time with
      | 0 -> ( match compare slot_a slot_b with 0 -> compare a.seq b.seq | c -> c)
      | c -> c
    in
    List.iter
      (fun (_, (r : Trace.record)) ->
        Trace.set_now r.time;
        Trace.emit r.event)
      (List.sort order pending);
    Trace.set_now (Sim.now t.sim)

(* Re-armed before the members run, so hops landing exactly one hop
   out sort behind the next tick deterministically. *)
let rec tick t () =
  ignore (Sim.schedule_after t.sim ~delay:hop (tick t));
  let limit = Sim.now t.sim in
  List.iter (fun m -> with_state m.trace (fun () -> Sim.run_until m.sim ~limit)) t.members;
  t.horizon <- limit;
  flush t

let create ~sim ~rng ~tenants ~devices ~mode ?(workers = 8) () =
  if devices <= 0 then invalid_arg "Lb_cluster.create: devices must be positive";
  let t =
    {
      sim;
      rng;
      tenants;
      default_workers = workers;
      members = [];
      horizon = 0;
      pending = [];
      next_slot = 0;
      next_req_id = 0;
      removed_completed = 0;
      removed_dropped = 0;
    }
  in
  for _ = 1 to devices do
    ignore (spawn t ~mode ~workers)
  done;
  ignore (Sim.schedule_after t.sim ~delay:hop (tick t));
  t

let size t = List.length t.members
let serving t = List.filter (fun m -> not m.draining) t.members
let in_rotation t = List.length (serving t)

let find t slot = List.find_opt (fun m -> m.slot = slot) t.members

let member t slot =
  match find t slot with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Lb_cluster: slot %d removed" slot)

let device t slot = (member t slot).dev
let devices t = List.map (fun m -> (m.slot, m.dev)) t.members

(* Control -> device: one hop from now, on the member's simulator.  A
   member removed in the meantime never runs again, so the action is
   dropped with it. *)
let post_to t ~slot action =
  match find t slot with
  | Some m -> ignore (Sim.schedule m.sim ~at:(Sim_time.add (Sim.now t.sim) hop) action)
  | None -> ()

type conn_ref = {
  cluster : t;
  slot : int;
  member : Lb.Device.t;
  conn : Lb.Conn.t;
}

type events = {
  established : conn_ref -> unit;
  request_done : conn_ref -> Lb.Request.t -> unit;
  closed : conn_ref -> unit;
  reset : conn_ref -> unit;
  dispatch_failed : unit -> unit;
}

let null_events =
  {
    established = (fun _ -> ());
    request_done = (fun _ _ -> ());
    closed = (fun _ -> ());
    reset = (fun _ -> ());
    dispatch_failed = (fun () -> ());
  }

let dispatch t (m : member) ~tenant ~events =
  m.connecting <- m.connecting + 1;
  let answered () = m.connecting <- m.connecting - 1 in
  let wrap conn = { cluster = t; slot = m.slot; member = m.dev; conn } in
  (* Device -> control: one hop after the device-side event. *)
  let to_control action =
    ignore (Sim.schedule t.sim ~at:(Sim_time.add (Sim.now m.sim) hop) action)
  in
  let dev_events =
    {
      Lb.Device.established =
        (fun conn ->
          to_control (fun () ->
              answered ();
              events.established (wrap conn)));
      request_done =
        (fun conn req ->
          to_control (fun () -> events.request_done (wrap conn) req));
      closed = (fun conn -> to_control (fun () -> events.closed (wrap conn)));
      reset = (fun conn -> to_control (fun () -> events.reset (wrap conn)));
      dispatch_failed =
        (fun () ->
          to_control (fun () ->
              answered ();
              events.dispatch_failed ()));
    }
  in
  post_to t ~slot:m.slot (fun () ->
      Lb.Device.connect m.dev ~tenant ~events:dev_events)

let connect t ~tenant ~events =
  match serving t with
  | [] ->
    (* Nothing in rotation is a control-plane fact known immediately:
       fail synchronously, before any hop. *)
    events.dispatch_failed ()
  | members ->
    (* ECMP-style spread: uniform choice is what per-flow hashing looks
       like over many flows. *)
    let m = List.nth members (Engine.Rng.int t.rng (List.length members)) in
    dispatch t m ~tenant ~events

let send r req =
  post_to r.cluster ~slot:r.slot (fun () ->
      ignore (Lb.Device.send r.member r.conn req))

let close r =
  post_to r.cluster ~slot:r.slot (fun () ->
      Lb.Device.close_conn r.member r.conn)

let run_on t ~slot f =
  let m = member t slot in
  post_to t ~slot (fun () -> f m.dev)

let fresh_id t =
  t.next_req_id <- t.next_req_id + 1;
  t.next_req_id

let add_device t ~mode ?workers () =
  let workers = Option.value ~default:t.default_workers workers in
  spawn t ~mode ~workers

let drain_device t slot = (member t slot).draining <- true

let live_conns t slot =
  Array.fold_left ( + ) 0 (Lb.Device.conns_per_worker (device t slot))

(* The device count alone misses a connection whose connect hop has not
   landed or that still waits in an accept queue; the device check
   stays for connections opened on a member device directly. *)
let drained t slot = (member t slot).connecting = 0 && live_conns t slot = 0

(* The member stops running; what it recorded is already pending. *)
let remove t slot =
  let m = member t slot in
  t.removed_completed <- t.removed_completed + Lb.Device.completed m.dev;
  t.removed_dropped <- t.removed_dropped + Lb.Device.dropped m.dev;
  t.members <- List.filter (fun m' -> m' != m) t.members

let remove_when_drained t slot ?(poll = Sim_time.ms 100) ~on_removed () =
  let rec wait () =
    if Option.is_none (find t slot) then on_removed ()
    else if drained t slot then begin
      remove t slot;
      on_removed ()
    end
    else ignore (Sim.schedule_after t.sim ~delay:poll wait)
  in
  wait ()

let rolling_replace t ~new_mode ?workers ?(poll = Sim_time.ms 100)
    ?(max_drain = Sim_time.sec 30) ~on_done () =
  let originals = List.map (fun (m : member) -> m.slot) t.members in
  let rec step = function
    | [] -> on_done ()
    | slot :: rest ->
      ignore (add_device t ~mode:new_mode ?workers ());
      drain_device t slot;
      let deadline = Sim_time.add (Sim.now t.sim) max_drain in
      let rec wait () =
        if drained t slot || Sim.now t.sim >= deadline then begin
          (* Past the deadline the member is removed with whatever it
             still holds: it stops running, so those connections are
             abandoned without a close or reset, like the long-lived
             clients of Fig. 11's rollout tail. *)
          remove t slot;
          step rest
        end
        else ignore (Sim.schedule_after t.sim ~delay:poll wait)
      in
      wait ()
  in
  step originals

let completed t =
  List.fold_left (fun acc m -> acc + Lb.Device.completed m.dev) t.removed_completed t.members

let dropped t =
  List.fold_left (fun acc m -> acc + Lb.Device.dropped m.dev) t.removed_dropped t.members
