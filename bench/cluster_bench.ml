(* Sharded-cluster scaling harness: wall-clock of the same cluster
   program (a devices x workers x connections grid) under the
   sequential engine (~shards:1, no domain ever spawned) and under
   2/4/8 worker domains.  A row is named scenario/shards=N.

   Two gates, split by what they may depend on:

   - Behaviour: the completed-request count must be identical across
     every shard count in this run AND equal to the committed
     baseline's — it is a function of the logical decomposition alone
     (the full byte-level claim lives in test_shard_diff.ml; the bench
     re-checks the cheap fingerprint so a perf run cannot silently
     drift semantics).
   - Wall-clock: the shards=4 speedup over sequential must stay within
     0.5x of the committed baseline's speedup, and only when the
     machine shape matches (every row records the core count it ran
     on; on a different machine the speedup gate is skipped, the
     behaviour gate never is).  On the 1-core container that produced
     the committed rows the honest "speedup" is below 1 — domains add
     coordination cost and there is no parallel hardware to pay for
     it — so the gate is pinning overhead, not a 2x win. *)

module ST = Engine.Sim_time

let seed = 1234

(* Quick mode trims the grid (fewer scenarios and shard counts), not
   the per-scenario workload, so every row is a "full" row: completed
   counts stay comparable against the committed full baseline. *)
let scenarios ~quick =
  [ ("d4w2", 4, 2, 2000); ("d8w4", 8, 4, 4000) ]
  @ if quick then [] else [ ("d16w4", 16, 4, 8000); ("d100w2", 100, 2, 20000) ]

let shard_counts ~quick = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ]

(* One cluster program: [conns] connections spread over the first
   800 ms of virtual time, two 1 ms requests each, 1.5 s horizon so
   everything drains.  Hermes mode end to end — the point is to drag
   the whole per-device stack (WST, scheduler, eBPF dispatch) through
   the shard rounds, not a toy callback. *)
let run_one ~devices ~workers ~conns ~shards =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create seed in
  let tenants = Netsim.Tenant.population ~n:4 ~base_dport:20000 in
  let cluster =
    Cluster.Lb_cluster.create ~sim ~rng ~tenants ~devices
      ~mode:(Lb.Device.Hermes Hermes.Config.default) ~workers ~shards ()
  in
  Fun.protect
    ~finally:(fun () -> Cluster.Lb_cluster.shutdown cluster)
    (fun () ->
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
      (wall, Cluster.Lb_cluster.completed cluster))

(* Across the rows of one run (or of the baseline): each row's speedup
   over its scenario's sequential (shards=1) row, and how far its
   completed count drifts from that row's. *)
let derive rows =
  let open Harness.Row in
  List.map
    (fun r ->
      let scenario = List.hd (String.split_on_char '/' r.name) in
      let seq = List.find_opt (fun s -> s.name = scenario ^ "/shards=1") rows in
      let vs_seq m f =
        match (Option.bind seq (fun s -> get s m), get r m) with
        | Some s, Some x -> f s x
        | _ -> []
      in
      {
        r with
        metrics =
          r.metrics
          @ vs_seq "wall_s" (fun s x ->
                if x > 0. then [ ("speedup", s /. x) ] else [])
          @ vs_seq "completed" (fun s x -> [ ("shard_drift", x -. s) ]);
      })
    rows

let run ~quick =
  List.concat_map
    (fun (scenario, devices, workers, conns) ->
      List.map
        (fun shards ->
          let wall_s, completed = run_one ~devices ~workers ~conns ~shards in
          Harness.Row.v ~family:"cluster"
            ~name:(Printf.sprintf "%s/shards=%d" scenario shards)
            ~size:"full"
            [
              ("shards", float_of_int shards);
              ("devices", float_of_int devices);
              ("workers", float_of_int workers);
              ("conns", float_of_int conns);
              ("wall_s", wall_s);
              ("completed", float_of_int completed);
              ("cores", float_of_int (Domain.recommended_domain_count ()));
            ])
        (shard_counts ~quick))
    (scenarios ~quick)

let gates (r : Harness.Row.t) =
  let open Harness.Gate in
  [ v "completed" Exact; v "shard_drift" Zero ]
  @
  if Harness.Row.get r "shards" = Some 4.0 then
    [ v ~same_cores:true "speedup" (Rel_floor 0.5) ]
  else []

let family = Harness.Family.v "cluster" run ~gates ~derive
