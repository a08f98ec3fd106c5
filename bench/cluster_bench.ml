(* Cluster harness: wall-clock of one cluster program per scenario (a
   devices x workers x connections grid), one row per scenario.

   The gate is behaviour only: the completed-request count must equal
   the committed baseline's — it is a function of the program alone
   (the byte-level replay claim lives in test_fleet_replay.ml; the
   bench re-checks the cheap fingerprint so a perf run cannot silently
   drift semantics).  Wall time is recorded, not gated. *)

module ST = Engine.Sim_time

let seed = 1234

(* Quick mode trims the grid (fewer scenarios), not the per-scenario
   workload, so every row is a "full" row: completed counts stay
   comparable against the committed full baseline. *)
let scenarios ~quick =
  [ ("d4w2", 4, 2, 2000); ("d8w4", 8, 4, 4000) ]
  @ if quick then [] else [ ("d16w4", 16, 4, 8000); ("d100w2", 100, 2, 20000) ]

(* One cluster program: [conns] connections spread over the first
   800 ms of virtual time, two 1 ms requests each, 1.5 s horizon so
   everything drains.  Hermes mode end to end — the point is to drag
   the whole per-device stack (WST, scheduler, eBPF dispatch) through
   the cluster's ticks and hops, not a toy callback. *)
let run_one ~devices ~workers ~conns =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create seed in
  let tenants = Netsim.Tenant.population ~n:4 ~base_dport:20000 in
  let cluster =
    Cluster.Lb_cluster.create ~sim ~rng ~tenants ~devices
      ~mode:(Lb.Device.Hermes Hermes.Config.default) ~workers ()
  in
  for i = 0 to conns - 1 do
    let at = ST.us (i * 800_000 / max 1 conns) in
    let tenant = i mod Array.length tenants in
    ignore
      (Engine.Sim.schedule sim ~at (fun () ->
           let open Cluster.Lb_cluster in
           let pending = ref 2 in
           connect cluster ~tenant
             ~events:
               {
                 established =
                   (fun h ->
                     for _ = 1 to 2 do
                       send h
                         (Lb.Request.make ~id:(fresh_id cluster)
                            ~op:Lb.Request.Plain_proxy ~size:64
                            ~cost:(ST.ms 1) ~tenant_id:tenant)
                     done);
                 request_done =
                   (fun h _ ->
                     decr pending;
                     if !pending = 0 then close h);
                 closed = ignore;
                 reset = ignore;
                 dispatch_failed = (fun () -> ());
               }))
  done;
  let t0 = Unix.gettimeofday () in
  Engine.Sim.run_until sim ~limit:(ST.ms 1500);
  let wall = Unix.gettimeofday () -. t0 in
  (wall, Cluster.Lb_cluster.completed cluster)

let run ~quick =
  List.map
    (fun (scenario, devices, workers, conns) ->
      let wall_s, completed = run_one ~devices ~workers ~conns in
      Harness.Row.v ~family:"cluster" ~name:scenario ~size:"full"
        [
          ("devices", float_of_int devices);
          ("workers", float_of_int workers);
          ("conns", float_of_int conns);
          ("wall_s", wall_s);
          ("completed", float_of_int completed);
        ])
    (scenarios ~quick)

let family =
  Harness.Family.v "cluster" run ~gates:(fun _ -> [ Harness.Gate.v "completed" Exact ])
