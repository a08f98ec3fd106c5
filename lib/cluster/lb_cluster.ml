module Sim = Engine.Sim
module Sim_time = Engine.Sim_time
module Shard = Engine.Shard
module Coordinator = Engine.Coordinator

(* Each member device is one logical process (LP): slot [s] runs on
   its own simulator as shard id [s + 1], the caller's simulator is
   the control LP (id 0).  All cluster<->device interaction crosses
   LP boundaries as messages with a fixed latency [lookahead], and the
   coordinator advances the fleet in rounds of exactly that width — so
   no LP can ever receive a message inside a window it has already
   executed (conservative synchronization).  Schedules, trace sequence
   numbers and message stamps are functions of the LP decomposition
   alone. *)

type member = {
  slot : int;
  shard : Shard.t;
  dev : Lb.Device.t;
  mutable draining : bool;
}

type t = {
  sim : Sim.t;  (* the control LP; driven by the caller *)
  control : Shard.t;
  coord : Coordinator.t;
  rng : Engine.Rng.t;
  tenants : Netsim.Tenant.t array;
  default_workers : int;
  lookahead : Sim_time.t;
  trace_capacity : int option;
  slots : (int, member) Hashtbl.t;
  mutable next_slot : int;
  mutable next_req_id : int;
  mutable removed_completed : int;
  mutable removed_dropped : int;
  mutable retired_traces : (int * Trace.record list) list;
  mutable retired_trace_drops : int;
}

let lp_of_slot slot = slot + 1

let spawn t ~mode ~workers =
  let slot = t.next_slot in
  t.next_slot <- slot + 1;
  let shard =
    Shard.create ~id:(lp_of_slot slot) ?trace_capacity:t.trace_capacity ()
  in
  (* A device joining mid-run starts at the fleet's horizon: align the
     empty shard clock first so creation-time events stamp there. *)
  let horizon = Coordinator.horizon t.coord in
  if horizon > 0 then Shard.run_to shard ~limit:horizon;
  let dev =
    Shard.with_context shard (fun () ->
        let dev =
          Lb.Device.create ~sim:(Shard.sim shard) ~rng:(Engine.Rng.split t.rng)
            ~mode ~workers ~tenants:t.tenants ()
        in
        Lb.Device.start dev;
        dev)
  in
  Coordinator.add t.coord shard;
  Hashtbl.replace t.slots slot { slot; shard; dev; draining = false };
  slot

(* The synchronization round, riding the control sim as a recurring
   event: deliver control mail, run every member to the control
   clock, collect member mail.  Re-armed before advancing so message
   events landing exactly one lookahead out sort behind the next
   tick deterministically. *)
let rec tick t () =
  ignore (Sim.schedule_after t.sim ~delay:t.lookahead (tick t));
  Coordinator.advance t.coord ~horizon:(Sim.now t.sim)

let create ~sim ~rng ~tenants ~devices ~mode ?(workers = 8) ?lookahead
    ?trace_capacity () =
  if devices <= 0 then invalid_arg "Lb_cluster.create: devices must be positive";
  let lookahead =
    match lookahead with
    | Some d ->
      if d <= 0 then invalid_arg "Lb_cluster.create: lookahead must be positive";
      d
    | None -> Hermes.Runtime.cross_shard_latency ()
  in
  let control = Shard.control ~sim in
  let t =
    {
      sim;
      control;
      coord = Coordinator.create ~control;
      rng;
      tenants;
      default_workers = workers;
      lookahead;
      trace_capacity;
      slots = Hashtbl.create 16;
      next_slot = 0;
      next_req_id = 0;
      removed_completed = 0;
      removed_dropped = 0;
      retired_traces = [];
      retired_trace_drops = 0;
    }
  in
  for _ = 1 to devices do
    ignore (spawn t ~mode ~workers)
  done;
  ignore (Sim.schedule_after t.sim ~delay:t.lookahead (tick t));
  t

let size t = Hashtbl.length t.slots

let in_rotation t =
  Hashtbl.fold (fun _ m acc -> if m.draining then acc else acc + 1) t.slots 0

let member t slot =
  match Hashtbl.find_opt t.slots slot with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Lb_cluster: slot %d removed" slot)

let device t slot = (member t slot).dev

let devices t =
  Hashtbl.fold (fun slot m acc -> (slot, m.dev) :: acc) t.slots []
  |> List.sort compare

let serving t =
  Hashtbl.fold (fun _ m acc -> if m.draining then acc else m :: acc) t.slots []
  |> List.sort (fun a b -> compare a.slot b.slot)

let lookahead t = t.lookahead

(* Control -> device mail: delivered by the coordinator at the next
   round, executed on the member's simulator one lookahead from now.
   Mail for a slot removed in the meantime is dropped with the LP. *)
let post_to t ~slot action =
  if Hashtbl.mem t.slots slot then
    Shard.post t.control ~dst:(lp_of_slot slot)
      ~at:(Sim_time.add (Sim.now t.sim) t.lookahead)
      action

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

let dispatch t m ~tenant ~events =
  let shard = m.shard in
  let dev_sim = Shard.sim shard in
  let wrap conn = { cluster = t; slot = m.slot; member = m.dev; conn } in
  (* Device-side callbacks fire on the member's simulator; marshal
     them back to the control LP one lookahead later. *)
  let to_control action =
    Shard.post shard ~dst:0
      ~at:(Sim_time.add (Sim.now dev_sim) t.lookahead)
      action
  in
  let dev_events =
    {
      Lb.Device.established =
        (fun conn -> to_control (fun () -> events.established (wrap conn)));
      request_done =
        (fun conn req ->
          to_control (fun () -> events.request_done (wrap conn) req));
      closed = (fun conn -> to_control (fun () -> events.closed (wrap conn)));
      reset = (fun conn -> to_control (fun () -> events.reset (wrap conn)));
      dispatch_failed =
        (fun () -> to_control (fun () -> events.dispatch_failed ()));
    }
  in
  post_to t ~slot:m.slot (fun () ->
      Lb.Device.connect m.dev ~tenant ~events:dev_events)

let connect t ~tenant ~events =
  match serving t with
  | [] ->
    (* Nothing in rotation is a control-plane fact known immediately:
       fail synchronously, before any cross-shard hop. *)
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

let remove t slot =
  let m = member t slot in
  t.removed_completed <- t.removed_completed + Lb.Device.completed m.dev;
  t.removed_dropped <- t.removed_dropped + Lb.Device.dropped m.dev;
  (match t.trace_capacity with
  | Some _ ->
    t.retired_traces <-
      (lp_of_slot slot, Shard.records m.shard) :: t.retired_traces;
    t.retired_trace_drops <- t.retired_trace_drops + Shard.dropped_records m.shard
  | None -> ());
  Hashtbl.remove t.slots slot;
  Coordinator.remove t.coord (lp_of_slot slot)

let remove_when_drained t slot ?(poll = Sim_time.ms 100) ~on_removed () =
  let rec wait () =
    if not (Hashtbl.mem t.slots slot) then on_removed ()
    else if live_conns t slot = 0 then begin
      remove t slot;
      on_removed ()
    end
    else ignore (Sim.schedule_after t.sim ~delay:poll wait)
  in
  wait ()

let rolling_replace t ~new_mode ?workers ?(poll = Sim_time.ms 100)
    ?(max_drain = Sim_time.sec 30) ~on_done () =
  let originals =
    Hashtbl.fold (fun slot _ acc -> slot :: acc) t.slots [] |> List.sort compare
  in
  let rec step = function
    | [] -> on_done ()
    | slot :: rest ->
      ignore (add_device t ~mode:new_mode ?workers ());
      drain_device t slot;
      let deadline = Sim_time.add (Sim.now t.sim) max_drain in
      let rec wait () =
        if live_conns t slot = 0 || Sim.now t.sim >= deadline then begin
          (* past the deadline the VM keeps draining out of rotation,
             like the long-lived-client tail of Fig. 11; accounting-wise
             it leaves the cluster now *)
          remove t slot;
          step rest
        end
        else ignore (Sim.schedule_after t.sim ~delay:poll wait)
      in
      wait ()
  in
  step originals

let completed t =
  t.removed_completed
  + Hashtbl.fold (fun _ m acc -> acc + Lb.Device.completed m.dev) t.slots 0

let dropped t =
  t.removed_dropped
  + Hashtbl.fold (fun _ m acc -> acc + Lb.Device.dropped m.dev) t.slots 0

let merged_trace t =
  let live =
    Hashtbl.fold
      (fun slot m acc -> (lp_of_slot slot, Shard.records m.shard) :: acc)
      t.slots []
  in
  let tagged =
    List.concat_map
      (fun (lp, records) -> List.map (fun r -> (lp, r)) records)
      (live @ t.retired_traces)
  in
  let order (lp_a, (a : Trace.record)) (lp_b, (b : Trace.record)) =
    match compare a.Trace.time b.Trace.time with
    | 0 -> (
      match compare lp_a lp_b with 0 -> compare a.Trace.seq b.Trace.seq | c -> c)
    | c -> c
  in
  (* Re-stamp [seq] in merge order so the merged stream reads like one
     recorder's output whatever the per-LP interleaving was. *)
  List.mapi
    (fun i (_, r) -> { r with Trace.seq = i })
    (List.sort order tagged)

let trace_drops t =
  t.retired_trace_drops
  + Hashtbl.fold
      (fun _ m acc -> acc + Shard.dropped_records m.shard)
      t.slots 0

