(* Tests for the experiments registry and the fast experiments as
   integration smoke (the full regeneration is [hermes_sim all]). *)

let check = Alcotest.check

let test_registry_complete () =
  let ids = Experiments.Registry.ids () in
  check Alcotest.int "twenty experiments" 20 (List.length ids);
  List.iter
    (fun id ->
      check Alcotest.bool (id ^ " findable") true
        (Experiments.Registry.find id <> None))
    [
      "table1"; "table2"; "table3"; "table4"; "table5"; "splice_cycles";
      "fig3"; "fig45"; "fig7"; "fig11"; "fig12"; "fig13"; "fig14"; "fig15";
      "fig_a5"; "ablation"; "exceptions"; "iouring"; "experiences"; "chaos";
    ]

let test_registry_ids_unique () =
  let ids = Experiments.Registry.ids () in
  let sorted = List.sort_uniq compare ids in
  check Alcotest.int "no duplicates" (List.length ids) (List.length sorted)

let test_registry_unknown () =
  check Alcotest.bool "unknown id" true (Experiments.Registry.find "nonsense" = None)

let with_captured_stdout f =
  (* The experiments print to stdout; run them and ensure output was
     produced without crashing. *)
  let buf = Filename.temp_file "hermes_exp" ".out" in
  let fd = Unix.openfile buf [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd)
    f;
  let ic = open_in buf in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  Sys.remove buf;
  contents

let run_experiment id =
  match Experiments.Registry.find id with
  | None -> Alcotest.fail ("missing " ^ id)
  | Some e ->
    let out = with_captured_stdout (fun () -> e.Experiments.Registry.run ~quick:true ()) in
    check Alcotest.bool (id ^ " produced a table") true (String.length out > 100)

let test_table1 () = run_experiment "table1"
let test_fig12 () = run_experiment "fig12"
let test_fig_a5 () = run_experiment "fig_a5"
let test_table4 () = run_experiment "table4"

let test_common_device_factory () =
  let device, rng =
    Experiments.Common.make_device ~workers:2 ~tenants:2 ~mode:Lb.Device.Reuseport ()
  in
  check Alcotest.int "workers" 2 (Lb.Device.worker_count device);
  check Alcotest.int "tenants" 2 (Array.length (Lb.Device.tenants device));
  (* rng is usable and deterministic given the default seed *)
  let device2, rng2 =
    Experiments.Common.make_device ~workers:2 ~tenants:2 ~mode:Lb.Device.Reuseport ()
  in
  ignore device2;
  check Alcotest.int "workload rng deterministic" (Engine.Rng.bits53 rng)
    (Engine.Rng.bits53 rng2)

let test_modes_lists () =
  check Alcotest.int "three compared" 3 (List.length Experiments.Common.compared_modes);
  check Alcotest.int "six total" 6 (List.length Experiments.Common.all_modes)

let () =
  Alcotest.run "experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "unique ids" `Quick test_registry_ids_unique;
          Alcotest.test_case "unknown" `Quick test_registry_unknown;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "table1 runs" `Quick test_table1;
          Alcotest.test_case "fig12 runs" `Quick test_fig12;
          Alcotest.test_case "fig_a5 runs" `Quick test_fig_a5;
          Alcotest.test_case "table4 runs" `Quick test_table4;
        ] );
      ( "common",
        [
          Alcotest.test_case "device factory" `Quick test_common_device_factory;
          Alcotest.test_case "mode lists" `Quick test_modes_lists;
        ] );
    ]
