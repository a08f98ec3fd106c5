(* Replay differential for the cluster.

   A cluster program — connects, drains, adds, removals, fault
   injections, all scheduled on the control simulator — must produce a
   byte-identical merged trace and identical control-side outcomes
   every time it is replayed: schedules and trace streams depend on
   the member slots and nothing else.  The merged stream must also
   read like one recorder's: times never decrease and [seq] counts
   from 0.  Random programs come from qcheck; each is run twice and
   the renders are compared as strings. *)

module Sim = Engine.Sim
module ST = Engine.Sim_time

type op =
  | Connect of { tenant : int; reqs : int }
  | Add_device
  | Drain of int
  | Remove_drained of int
  | Inject of { slot : int; fault : int }

type prog = {
  seed : int;
  devices : int;
  workers : int;
  ops : (int * op) list; (* (at in us, op) *)
}

let pp_op = function
  | Connect { tenant; reqs } -> Printf.sprintf "connect t%d r%d" tenant reqs
  | Add_device -> "add"
  | Drain s -> Printf.sprintf "drain %d" s
  | Remove_drained s -> Printf.sprintf "remove %d" s
  | Inject { slot; fault } -> Printf.sprintf "inject %d f%d" slot fault

let pp_prog p =
  Printf.sprintf "{seed=%d devices=%d workers=%d ops=[%s]}" p.seed p.devices
    p.workers
    (String.concat "; "
       (List.map (fun (at, op) -> Printf.sprintf "%dus %s" at (pp_op op)) p.ops))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map2
            (fun tenant reqs -> Connect { tenant; reqs })
            (int_bound 1) (int_range 1 3) );
        (1, return Add_device);
        (1, map (fun s -> Drain s) (int_bound 5));
        (1, map (fun s -> Remove_drained s) (int_bound 5));
        ( 1,
          map2 (fun slot fault -> Inject { slot; fault }) (int_bound 5)
            (int_bound 3) );
      ])

let gen_prog =
  QCheck.Gen.(
    map
      (fun (seed, devices, workers, ops) -> { seed; devices; workers; ops })
      (quad (int_bound 1_000_000) (int_range 1 3) (int_range 1 2)
         (list_size (int_range 1 12) (pair (int_bound 40_000) gen_op))))

let arbitrary_prog = QCheck.make ~print:pp_prog gen_prog

(* A small fault plan relative to the op's control-time instant; the
   entries sit beyond the cluster's hop so Inject.arm never schedules
   into the device's past. *)
let plan_for ~at_us fault : Faults.Plan.t =
  let base = ST.add (ST.us at_us) (ST.ms 3) in
  match fault mod 4 with
  | 0 -> [ { Faults.Plan.at = base; action = Hang { worker = 0; duration = ST.ms 4 } } ]
  | 1 ->
    [
      { Faults.Plan.at = base; action = Crash { worker = 0 } };
      { Faults.Plan.at = ST.add base (ST.ms 6); action = Recover { worker = 0 } };
    ]
  | 2 ->
    [
      {
        Faults.Plan.at = base;
        action = Accept_overflow { worker = 0; duration = ST.ms 5 };
      };
    ]
  | _ -> [ { Faults.Plan.at = base; action = Probe_loss { duration = ST.ms 5 } } ]

(* Control-side observable log: everything a harness could branch on,
   stamped with virtual time.  Compared across replays alongside the
   merged trace. *)
let run_prog prog =
  let sink, records = Capture.sink () in
  Trace.with_sink sink @@ fun () ->
  let sim = Sim.create () in
  let rng = Engine.Rng.create prog.seed in
  let tenants = Netsim.Tenant.population ~n:2 ~base_dport:20000 in
  let cluster =
    Cluster.Lb_cluster.create ~sim ~rng ~tenants ~devices:prog.devices
      ~mode:Lb.Device.Reuseport ~workers:prog.workers ()
  in
  let outcomes = ref [] in
  let push fmt =
    Printf.ksprintf (fun s -> outcomes := Printf.sprintf "%d %s" (Sim.now sim) s :: !outcomes) fmt
  in
  let live slot = List.mem_assoc slot (Cluster.Lb_cluster.devices cluster) in
  let apply (at, op) =
    ignore
      (Sim.schedule sim ~at:(ST.us at) (fun () ->
           match op with
           | Connect { tenant; reqs } ->
             let open Cluster.Lb_cluster in
             let pending = ref reqs in
             connect cluster ~tenant
               ~events:
                 {
                   established =
                     (fun h ->
                       push "est slot=%d conn=%d" h.slot h.conn.Lb.Conn.id;
                       for _ = 1 to reqs do
                         send h
                           (Lb.Request.make ~id:(fresh_id cluster)
                              ~op:Lb.Request.Plain_proxy ~size:64
                              ~cost:(ST.ms 1) ~tenant_id:tenant)
                       done);
                   request_done =
                     (fun h req ->
                       push "done slot=%d req=%d" h.slot req.Lb.Request.id;
                       decr pending;
                       if !pending = 0 then close h);
                   closed = (fun h -> push "closed slot=%d" h.slot);
                   reset = (fun h -> push "reset slot=%d" h.slot);
                   dispatch_failed = (fun () -> push "dispatch_failed");
                 }
           | Add_device ->
             let slot =
               Cluster.Lb_cluster.add_device cluster ~mode:Lb.Device.Reuseport ()
             in
             push "added slot=%d" slot
           | Drain s ->
             if live s then begin
               Cluster.Lb_cluster.drain_device cluster s;
               push "drained slot=%d" s
             end
           | Remove_drained s ->
             if live s && Cluster.Lb_cluster.in_rotation cluster > 1 then begin
               Cluster.Lb_cluster.drain_device cluster s;
               Cluster.Lb_cluster.remove_when_drained cluster s
                 ~poll:(ST.ms 5)
                 ~on_removed:(fun () -> push "removed slot=%d" s)
                 ()
             end
           | Inject { slot; fault } ->
             if live slot then begin
               Cluster.Lb_cluster.run_on cluster ~slot (fun dev ->
                   Faults.Inject.arm ~device:dev ~plan:(plan_for ~at_us:at fault));
               push "injected slot=%d fault=%d" slot fault
             end))
  in
  List.iter apply prog.ops;
  Sim.run_until sim ~limit:(ST.ms 80);
  let records = records () in
  let summary =
    Printf.sprintf "completed=%d dropped=%d size=%d"
      (Cluster.Lb_cluster.completed cluster)
      (Cluster.Lb_cluster.dropped cluster)
      (Cluster.Lb_cluster.size cluster)
  in
  (records, String.concat "\n" (List.rev !outcomes), summary)

(* The first record out of order, if any: times must never decrease
   and [seq] must be the record's index. *)
let disorder records =
  let rec go i prev = function
    | [] -> None
    | (r : Trace.record) :: rest ->
      if r.seq <> i || r.time < prev then Some r else go (i + 1) r.time rest
  in
  go 0 0 records

let render records = String.concat "\n" (List.map Trace.json_of_record records)

(* Replaying the same program must be bit-stable, and the merged
   stream must be in order. *)
let prop_replay_stable =
  QCheck.Test.make ~name:"same program => identical run" ~count:300
    arbitrary_prog (fun prog ->
      let records, out, summary = run_prog prog in
      Option.iter
        (fun r ->
          QCheck.Test.fail_reportf "merged stream out of order at %s"
            (Trace.json_of_record r))
        (disorder records);
      let trace = render records in
      let records', out', summary' = run_prog prog in
      let trace' = render records' in
      if trace <> trace' then
        QCheck.Test.fail_reportf "merged trace diverged (lengths %d vs %d)"
          (String.length trace) (String.length trace');
      if out <> out' then
        QCheck.Test.fail_reportf
          "control-side outcomes diverged:\n%s\n-- vs --\n%s" out out';
      summary = summary' || QCheck.Test.fail_reportf "%s vs %s" summary summary')

let test_nonempty_traces () =
  (* Guard against the vacuous pass: a representative program must
     actually exercise devices and record a non-trivial merged trace. *)
  let prog =
    {
      seed = 42;
      devices = 3;
      workers = 2;
      ops =
        [
          (0, Connect { tenant = 0; reqs = 2 });
          (500, Connect { tenant = 1; reqs = 1 });
          (1_000, Inject { slot = 0; fault = 1 });
          (2_000, Add_device);
          (3_000, Connect { tenant = 0; reqs = 3 });
          (5_000, Remove_drained 1);
          (8_000, Connect { tenant = 1; reqs = 1 });
        ];
    }
  in
  let records, outcomes, summary = run_prog prog in
  Alcotest.(check bool) "merged stream in order" true (disorder records = None);
  Alcotest.(check bool) "trace has records" true (List.length records > 20);
  Alcotest.(check bool)
    "connections established" true
    (String.length outcomes > 0
    && String.split_on_char '\n' outcomes
       |> List.exists (fun l ->
              match String.index_opt l ' ' with
              | Some i -> String.length l > i + 3 && String.sub l (i + 1) 3 = "est"
              | None -> false));
  Alcotest.(check bool)
    "work completed" true
    (Scanf.sscanf summary "completed=%d" (fun c -> c > 0))

let () =
  Alcotest.run "fleet_replay"
    [
      ( "differential",
        [
          Alcotest.test_case "representative program" `Quick test_nonempty_traces;
          QCheck_alcotest.to_alcotest prop_replay_stable;
        ] );
    ]
