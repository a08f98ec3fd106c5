type message = {
  at : Sim_time.t;
  src : int;
  dst : int;
  seq : int;
  action : unit -> unit;
}

type t = {
  id : int;
  sim : Sim.t;
  (* [None] on the control shard: it keeps the ambient recorder
     context so caller-installed sinks keep seeing control events. *)
  trace : Trace.state option;
  ring : Trace.Ring.t option;
  mutable outbox : message list; (* reversed: most recent first *)
  mutable msg_seq : int;
}

let create ~id ?trace_capacity () =
  let sim = Sim.create () in
  let ring = Option.map (fun capacity -> Trace.Ring.create ~capacity) trace_capacity in
  let sink = Option.map Trace.ring_sink ring in
  { id; sim; trace = Some (Trace.make_state sink); ring; outbox = []; msg_seq = 0 }

let control ~sim = { id = 0; sim; trace = None; ring = None; outbox = []; msg_seq = 0 }

let id t = t.id
let sim t = t.sim

let post t ~dst ~at action =
  let seq = t.msg_seq in
  t.msg_seq <- seq + 1;
  t.outbox <- { at; src = t.id; dst; seq; action } :: t.outbox

let drain_outbox t =
  let msgs = List.rev t.outbox in
  t.outbox <- [];
  msgs

let deliver t msg = ignore (Sim.schedule t.sim ~at:msg.at msg.action)

let with_context t f =
  match t.trace with
  | None -> f ()
  | Some state ->
    let saved = Trace.swap_state state in
    Fun.protect ~finally:(fun () -> ignore (Trace.swap_state saved)) f

let run_to t ~limit =
  if t.trace = None then
    invalid_arg "Shard.run_to: the control shard is driven by its caller";
  with_context t (fun () -> Sim.run_until t.sim ~limit)

let records t =
  match t.ring with None -> [] | Some ring -> Trace.Ring.records ring

let dropped_records t =
  match t.ring with None -> 0 | Some ring -> Trace.Ring.dropped ring
