(* Bechamel micro-benchmarks of the Hermes hot paths: the bit twiddling
   the eBPF dispatcher relies on, WST updates and snapshots, a full
   Algo 1 scheduling pass, the Algo 2 program under the interpreters,
   and the supporting codecs.  Informational rows: no gates. *)

open Bechamel
open Toolkit

let bitmap = Kernel.Bitops.bits_of_list [ 1; 3; 8; 13; 21; 34; 55 ]

let tuple =
  {
    Netsim.Addr.src_ip = 0x0A00002A;
    src_port = 43210;
    dst_ip = 0x0A0000FE;
    dst_port = 20007;
  }

let wst8 = Hermes.Wst.create ~workers:8

let () =
  for w = 0 to 7 do
    Hermes.Wst.set_avail wst8 w ~now:(Engine.Sim_time.ms 1);
    Hermes.Wst.add_busy wst8 w (w * 3);
    Hermes.Wst.add_conn wst8 w (w * 7)
  done

(* The Algo 2 program over a one-entry M_Sel and 64 bound sockets. *)
let dispatch_program suffix =
  let m_sel =
    Kernel.Ebpf_maps.Array_map.create ~name:("M_Sel" ^ suffix) ~size:1
  in
  Kernel.Ebpf_maps.Array_map.kernel_update m_sel 0 bitmap;
  let m_socket =
    Kernel.Ebpf_maps.Sockarray.create ~name:("M_sock" ^ suffix) ~size:64
  in
  for i = 0 to 63 do
    Kernel.Ebpf_maps.Sockarray.set m_socket i
      (Kernel.Socket.create_listen ~port:80 ~backlog:4 ())
  done;
  Hermes.Dispatch.single_group ~m_sel ~m_socket ~min_selected:2

let dispatch_prog = Kernel.Ebpf.verify_exn (dispatch_program "")

let dispatch_vm =
  match Kernel.Verifier.compile_and_verify (dispatch_program "_vm") with
  | Ok v ->
    if not (Kernel.Ebpf_vm.fully_proved v) then
      failwith "bench: dispatch bytecode left residual runtime checks";
    v
  | Error e -> failwith (Kernel.Verifier.error_to_string e)

let router100 =
  Lb.Router.create
    (List.init 100 (fun i ->
         {
           Lb.Router.matcher =
             { host = None; path = `Prefix (Printf.sprintf "/svc%d/" i) };
           backend_group = Printf.sprintf "g%d" (i mod 8);
         }))

let http_raw =
  "GET /svc42/items?q=1 HTTP/1.1\r\nHost: bench.example\r\nAccept: */*\r\n\r\n"

let micro_tests () =
  let hist = Stats.Histogram.create () in
  let hooks = Hermes.Metrics.create ~wst:wst8 ~worker:0 in
  [
    Test.make ~name:"bitops/popcount64"
      (Staged.stage (fun () -> Kernel.Bitops.popcount64 bitmap));
    Test.make ~name:"bitops/find_nth_set"
      (Staged.stage (fun () -> Kernel.Bitops.find_nth_set bitmap 4));
    Test.make ~name:"bitops/reciprocal_scale"
      (Staged.stage (fun () ->
           Kernel.Bitops.reciprocal_scale ~hash:0xDEADBEEF ~n:7));
    Test.make ~name:"netsim/flow_hash"
      (Staged.stage (fun () -> Netsim.Flow_hash.of_four_tuple tuple));
    Test.make ~name:"hermes/wst_busy_update"
      (Staged.stage (fun () ->
           Hermes.Metrics.busy_count hooks 1;
           Hermes.Metrics.busy_count hooks (-1)));
    Test.make ~name:"hermes/wst_read_all_8"
      (Staged.stage (fun () -> Hermes.Wst.read_all wst8));
    Test.make ~name:"hermes/scheduler_pass_8"
      (Staged.stage (fun () ->
           Hermes.Scheduler.schedule ~config:Hermes.Config.default ~wst:wst8
             ~now:(Engine.Sim_time.ms 2)));
    Test.make ~name:"hermes/ebpf_dispatch"
      (Staged.stage (fun () ->
           Kernel.Ebpf.run dispatch_prog
             { Kernel.Ebpf.flow_hash = 0x9E3779B9; dst_port = 20007 }));
    Test.make ~name:"hermes/ebpf_dispatch_bytecode_checked"
      (Staged.stage (fun () ->
           Kernel.Ebpf_vm.run_checked dispatch_vm
             { Kernel.Ebpf.flow_hash = 0x9E3779B9; dst_port = 20007 }));
    Test.make ~name:"stats/histogram_record"
      (Staged.stage (fun () -> Stats.Histogram.record hist 123456.0));
    Test.make ~name:"lb/http_parse"
      (Staged.stage (fun () -> Lb.Http.parse_request http_raw));
    Test.make ~name:"lb/router_route_100"
      (Staged.stage (fun () ->
           Lb.Router.route router100 ~host:None ~path:"/svc42/items"));
  ]

(* Bechamel does not shrink with --quick, so every row is "full". *)
let run ~quick:_ =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  List.concat_map
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      Analyze.all ols Instance.monotonic_clock raw
      |> Hashtbl.to_seq |> List.of_seq
      |> List.map (fun (name, ols_result) ->
             let ns =
               match Analyze.OLS.estimates ols_result with
               | Some [ v ] -> v
               | _ -> nan
             in
             let r2 =
               match Analyze.OLS.r_square ols_result with
               | Some v -> v
               | None -> nan
             in
             Harness.Row.v ~family:"micro" ~name ~size:"full"
               [ ("ns_per_run", ns); ("r_square", r2) ]))
    (micro_tests ())

let family = Harness.Family.v "micro" run

