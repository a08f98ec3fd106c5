(* The benchmark's own client: an open-loop script driving
   [Lb.Device.connect] / [send] / [close_conn].

   The script is generated lazily from the seed, so its memory is
   bounded by the connections alive at once.  Connection arrivals are
   one Poisson stream; every connection draws its request count, gaps,
   sizes, costs and op classes from its own generator, split off the
   arrival stream.  Request [k] of a connection opened at [t0] is due
   at [t0 + gap_1 + ... + gap_k] whatever the LB does; a request due
   before the handshake completes goes out at establishment.  A
   connection closes once its last request has completed, and frees
   all its client state.  With [retries > 0] a connection whose SYN was
   dropped or that was reset reconnects after [retry_after] and re-sends
   what was lost; a request counts as failed only when the last attempt
   is lost too. *)

module Sim = Engine.Sim
module ST = Engine.Sim_time
module Device = Lb.Device

type script = {
  profile : Workload.Profile.t;
      (** arrival rate, requests per connection, gaps, sizes,
          processing times, op mix, tenant skew *)
  arrivals_until : ST.t;  (** no connection opens at or after this *)
  traffic_until : ST.t;  (** no request is due after this *)
  measure_from : ST.t;
  measure_until : ST.t;
  retries : int;
  retry_after : ST.t;
}

type t = {
  device : Device.t;
  sim : Sim.t;
  script : script;
  arrivals : Engine.Rng.t;
  arrival_gap : Engine.Dist.t;
  op_weights : float array;
  ops : Lb.Request.op array;
  pick_tenant : unit -> int;
  mutable next_key : int;
  mutable issued : int;
      (** requests that came due: sent, or lost with their session
          before they could be sent *)
  mutable completed : int;
  mutable completed_measured : int;
  mutable dropped : int;  (** requests lost with a dropped SYN *)
  mutable reset : int;  (** requests lost with a reset connection *)
  mutable established : int;
  mutable closed : int;
  mutable conns_reset : int;
  mutable syn_drops : int;
  mutable live : int;  (** sessions not yet closed or given up *)
}

type session = {
  key : int;
  rng : Engine.Rng.t;
  tenant : int;
  mutable remaining : int;  (** requests not yet sent *)
  mutable inflight : int;  (** sent, not yet completed *)
  mutable resend : int;  (** lost in flight, to send again on reconnect *)
  mutable due : ST.t;  (** due time of the next request *)
  mutable conn : Lb.Conn.t option;
  mutable closing : bool;
  mutable attempts : int;
  mutable events : Device.conn_events;
}

let gap t s =
  max 1 (ST.of_sec_f (Engine.Dist.sample t.script.profile.request_gap s.rng))

let in_window t =
  let now = Sim.now t.sim in
  now > t.script.measure_from && now <= t.script.measure_until

(* Requests the script still had for a lost session, drawn the same way
   [fire] would have drawn their due times.  They count as issued and
   lost, so issued = completed + dropped + reset holds whatever is lost. *)
let rec unissued t s acc =
  if s.remaining = 0 || s.due > t.script.traffic_until then acc
  else begin
    s.remaining <- s.remaining - 1;
    s.due <- s.due + gap t s;
    unissued t s (acc + 1)
  end

let connect t s =
  if !Span.on then Span.enter Span.connect s.key;
  Device.connect t.device ~tenant:s.tenant ~events:s.events;
  if !Span.on then Span.leave ()

let maybe_close t s conn =
  if s.remaining = 0 && s.inflight = 0 && s.resend = 0 && not s.closing then begin
    s.closing <- true;
    if !Span.on then Span.enter Span.close s.key;
    Device.close_conn t.device conn;
    if !Span.on then Span.leave ()
  end

let send_one t s conn =
  let p = t.script.profile in
  let op = t.ops.(Engine.Dist.categorical t.op_weights s.rng) in
  let size = max 0 (int_of_float (Engine.Dist.sample p.request_size s.rng)) in
  let cost = max 1 (ST.of_sec_f (Engine.Dist.sample p.processing_time s.rng)) in
  let req =
    Lb.Request.make ~id:(Device.fresh_id t.device) ~op ~size ~cost
      ~tenant_id:conn.Lb.Conn.tenant_id
  in
  s.inflight <- s.inflight + 1;
  if !Span.on then Span.enter Span.send s.key;
  let taken = Device.send t.device conn req in
  if !Span.on then Span.leave ();
  if not taken then begin
    s.inflight <- s.inflight - 1;
    t.reset <- t.reset + 1
  end

(* Schedule the next request, or close once the traffic window holds
   no more of this connection's requests. *)
let rec next t s conn =
  if s.due > t.script.traffic_until then s.remaining <- 0;
  if s.remaining > 0 then
    ignore (Sim.schedule t.sim ~at:(max (Sim.now t.sim) s.due) (fire t s s.attempts))
  else maybe_close t s conn

(* A timer armed by an earlier, lost attempt finds [attempt] stale and
   does nothing: the reconnect armed its own. *)
and fire t s attempt () =
  if !Span.on then Span.enter Span.client s.key;
  (match s.conn with
  | Some conn when Lb.Conn.is_open conn && attempt = s.attempts ->
    while s.resend > 0 do
      s.resend <- s.resend - 1;
      send_one t s conn
    done;
    if s.remaining > 0 && s.due <= t.script.traffic_until then begin
      s.remaining <- s.remaining - 1;
      t.issued <- t.issued + 1;
      send_one t s conn;
      s.due <- s.due + gap t s
    end;
    next t s conn
  | Some _ | None -> ());
  if !Span.on then Span.leave ()

let give_up t s ~to_reset =
  let unsent = unissued t s 0 in
  t.issued <- t.issued + unsent;
  let lost = s.resend + unsent in
  s.resend <- 0;
  if to_reset then t.reset <- t.reset + lost else t.dropped <- t.dropped + lost;
  t.live <- t.live - 1

let reconnect t s () =
  if !Span.on then Span.enter Span.client s.key;
  connect t s;
  if !Span.on then Span.leave ()

(* A lost attempt: re-send everything not completed on a fresh
   connection, or account it as failed once the retries are spent.  A
   session with nothing left to send just ends. *)
let lost t s ~to_reset =
  s.resend <- s.resend + s.inflight;
  s.inflight <- 0;
  s.conn <- None;
  s.closing <- false;
  let pending = s.resend > 0 || (s.remaining > 0 && s.due <= t.script.traffic_until) in
  if pending && s.attempts < t.script.retries then begin
    s.attempts <- s.attempts + 1;
    ignore (Sim.schedule_after t.sim ~delay:t.script.retry_after (reconnect t s))
  end
  else give_up t s ~to_reset

let on_established t s conn =
  if !Span.on then Span.enter Span.client s.key;
  t.established <- t.established + 1;
  s.conn <- Some conn;
  if s.resend > 0 then
    ignore (Sim.schedule t.sim ~at:(Sim.now t.sim) (fire t s s.attempts))
  else next t s conn;
  if !Span.on then Span.leave ()

let on_done t s =
  if !Span.on then Span.enter Span.client s.key;
  s.inflight <- s.inflight - 1;
  t.completed <- t.completed + 1;
  if in_window t then t.completed_measured <- t.completed_measured + 1;
  (match s.conn with Some conn -> maybe_close t s conn | None -> ());
  if !Span.on then Span.leave ()

let on_closed t s =
  if !Span.on then Span.enter Span.client s.key;
  t.closed <- t.closed + 1;
  s.conn <- None;
  give_up t s ~to_reset:true;
  if !Span.on then Span.leave ()

let on_reset t s =
  if !Span.on then Span.enter Span.client s.key;
  t.conns_reset <- t.conns_reset + 1;
  lost t s ~to_reset:true;
  if !Span.on then Span.leave ()

let on_failed t s =
  if !Span.on then Span.enter Span.client s.key;
  t.syn_drops <- t.syn_drops + 1;
  lost t s ~to_reset:false;
  if !Span.on then Span.leave ()

let rec arrive t () =
  let key = t.next_key in
  t.next_key <- key + 1;
  if !Span.on then Span.enter Span.client key;
  let p = t.script.profile in
  let rng = Engine.Rng.split t.arrivals in
  let tenant = t.pick_tenant () in
  let n =
    max 1 (int_of_float (Float.round (Engine.Dist.sample p.requests_per_conn rng)))
  in
  let now = Sim.now t.sim in
  let s =
    {
      key;
      rng;
      tenant;
      remaining = n;
      inflight = 0;
      resend = 0;
      due = now;
      conn = None;
      closing = false;
      attempts = 0;
      events = Device.null_conn_events;
    }
  in
  s.due <- now + gap t s;
  s.events <-
    {
      Device.established = on_established t s;
      request_done = (fun _ _ -> on_done t s);
      closed = (fun _ -> on_closed t s);
      reset = (fun _ -> on_reset t s);
      dispatch_failed = (fun () -> on_failed t s);
    };
  t.live <- t.live + 1;
  connect t s;
  next_arrival t;
  if !Span.on then Span.leave ()

and next_arrival t =
  let at =
    Sim.now t.sim
    + max 1 (ST.of_sec_f (Engine.Dist.sample t.arrival_gap t.arrivals))
  in
  if at < t.script.arrivals_until then ignore (Sim.schedule t.sim ~at (arrive t))

let start ~device ~script ~rng =
  let p = script.profile in
  let t =
    {
      device;
      sim = Device.sim device;
      script;
      arrivals = rng;
      arrival_gap = Engine.Dist.exponential ~mean:(1.0 /. p.Workload.Profile.cps);
      op_weights = Array.of_list (List.map fst p.op_mix);
      ops = Array.of_list (List.map snd p.op_mix);
      pick_tenant =
        Workload.Profile.tenant_picker p
          ~tenants:(Array.length (Device.tenants device))
          rng;
      next_key = 0;
      issued = 0;
      completed = 0;
      completed_measured = 0;
      dropped = 0;
      reset = 0;
      established = 0;
      closed = 0;
      conns_reset = 0;
      syn_drops = 0;
      live = 0;
    }
  in
  next_arrival t;
  t
