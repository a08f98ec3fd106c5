module Sim = Engine.Sim
module Sim_time = Engine.Sim_time

type op =
  | Connect of { at : Sim_time.t; key : int; tenant : int }
  | Send of {
      at : Sim_time.t;
      key : int;
      op_class : Lb.Request.op;
      size : int;
      cost : Sim_time.t;
    }
  | Close of { at : Sim_time.t; key : int }

type trace = { script : op array; conn_count : int }

let at_of = function
  | Connect { at; _ } | Send { at; _ } | Close { at; _ } -> at

let record ~profile ~tenants ~duration ~rng =
  if tenants <= 0 then invalid_arg "Replay.record: tenants must be positive";
  let pick_tenant = Profile.tenant_picker profile ~tenants rng in
  let pick_op = Profile.op_picker profile rng in
  let arrival_gap = Engine.Dist.exponential ~mean:(1.0 /. profile.Profile.cps) in
  let ops = ref [] in
  let key = ref 0 in
  let clock = ref 0 in
  let next_gap () = max 1 (Sim_time.of_sec_f (Engine.Dist.sample arrival_gap rng)) in
  clock := next_gap ();
  while !clock < duration do
    incr key;
    let k = !key in
    ops := Connect { at = !clock; key = k; tenant = pick_tenant () } :: !ops;
    let n_requests =
      max 1
        (int_of_float
           (Float.round (Engine.Dist.sample profile.Profile.requests_per_conn rng)))
    in
    let t = ref !clock in
    for _ = 1 to n_requests do
      t :=
        !t
        + max 1
            (Sim_time.of_sec_f (Engine.Dist.sample profile.Profile.request_gap rng));
      if !t < duration then begin
        let op_class = pick_op () in
        let size =
          max 0 (int_of_float (Engine.Dist.sample profile.Profile.request_size rng))
        in
        let cost =
          max 1
            (Sim_time.of_sec_f
               (Engine.Dist.sample profile.Profile.processing_time rng))
        in
        ops := Send { at = !t; key = k; op_class; size; cost } :: !ops
      end
    done;
    if !t < duration then ops := Close { at = !t; key = k } :: !ops;
    clock := !clock + next_gap ()
  done;
  (* stable sort: ties keep generation order, so serialization round
     trips exactly *)
  let script =
    Array.of_list
      (List.stable_sort (fun a b -> compare (at_of a) (at_of b)) (List.rev !ops))
  in
  { script; conn_count = !key }

let ops t = Array.to_list t.script

(* Client-side view of one connection during replay. *)
type conn_state = {
  mutable conn : Lb.Conn.t option;
  mutable buffered : Lb.Request.t list; (* reversed *)
  mutable want_close : bool;
  mutable dead : bool;
}

let replay t ~device ~rate =
  if rate <= 0.0 then invalid_arg "Replay.replay: rate must be positive";
  let sim = Lb.Device.sim device in
  let base = Sim.now sim in
  let states = Hashtbl.create 1024 in
  let state_of key =
    match Hashtbl.find_opt states key with
    | Some s -> s
    | None ->
      let s = { conn = None; buffered = []; want_close = false; dead = false } in
      Hashtbl.replace states key s;
      s
  in
  let flush s =
    match s.conn with
    | None -> ()
    | Some conn ->
      List.iter
        (fun req -> ignore (Lb.Device.send device conn req))
        (List.rev s.buffered);
      s.buffered <- [];
      if s.want_close then Lb.Device.close_conn device conn
  in
  let scaled at = base + int_of_float (float_of_int at /. rate) in
  Array.iter
    (fun op ->
      match op with
      | Connect { at; key; tenant } ->
        ignore
          (Sim.schedule sim ~at:(scaled at) (fun () ->
               let s = state_of key in
               let events =
                 {
                   Lb.Device.null_conn_events with
                   established =
                     (fun conn ->
                       s.conn <- Some conn;
                       flush s);
                   reset = (fun _ -> s.dead <- true);
                   dispatch_failed = (fun () -> s.dead <- true);
                 }
               in
               Lb.Device.connect device ~tenant ~events))
      | Send { at; key; op_class; size; cost } ->
        ignore
          (Sim.schedule sim ~at:(scaled at) (fun () ->
               let s = state_of key in
               if not s.dead then begin
                 let req =
                   Lb.Request.make ~id:(Lb.Device.fresh_id device) ~op:op_class
                     ~size ~cost ~tenant_id:0
                 in
                 match s.conn with
                 | Some conn ->
                   let req =
                     { req with Lb.Request.tenant_id = conn.Lb.Conn.tenant_id }
                   in
                   ignore (Lb.Device.send device conn req)
                 | None -> s.buffered <- req :: s.buffered
               end))
      | Close { at; key } ->
        ignore
          (Sim.schedule sim ~at:(scaled at) (fun () ->
               let s = state_of key in
               match s.conn with
               | Some conn when not s.dead -> Lb.Device.close_conn device conn
               | _ -> s.want_close <- true)))
    t.script
