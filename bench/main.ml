(* Regression benchmarks: every family of bench/, run through one
   harness (Bench.Harness) against one committed baseline,
   bench/baseline.json.

     dune exec bench/main.exe                       # every family, full size
     dune exec bench/main.exe -- --quick --only sched,conn
     dune exec bench/main.exe -- --only conn --json # re-record conn's rows
     dune exec bench/main.exe -- --quick --json=BENCH_CI.json --check \
       --only sched,dispatch,chaos,cluster,conn,splice  # the CI gate

   --json[=FILE] merges the run's rows into FILE; --check[=FILE] gates
   them against FILE (FILE defaults to bench/baseline.json).  Exits 1
   when a gate fails and 2 on a bad command line.  The paper's tables
   and figures are regenerated by [hermes_sim all] / [hermes_sim run]. *)

open Bench

(* [conn] runs first: its device_soak row reads the process's max-RSS
   high-water mark, which every family that ran before it would raise. *)
let families =
  [
    Conn_bench.family;
    Sched_bench.family;
    Dispatch_bench.family;
    Chaos_bench.family;
    Cluster_bench.family;
    Splice_bench.family;
  ]

let fail code fmt = Printf.ksprintf (fun s -> prerr_endline s; exit code) fmt

let () =
  let names = List.map (fun (f : Harness.Family.t) -> f.name) families in
  let args = List.tl (Array.to_list Sys.argv) in
  let cli =
    match Harness.Cli.parse ~families:names args with
    | Ok cli -> cli
    | Error msg -> fail 2 "bench: %s\n%s" msg Harness.Cli.usage
  in
  let families =
    List.filter
      (fun (f : Harness.Family.t) -> cli.only = [] || List.mem f.name cli.only)
      families
  in
  let baseline =
    Option.map
      (fun file ->
        match Harness.Json.read file with
        | Ok rows -> rows
        | Error msg -> fail 1 "bench: baseline %s: %s" file msg)
      cli.check
  in
  let rows =
    List.concat_map
      (fun (f : Harness.Family.t) ->
        (* collect the previous family's garbage now, so no major slice
           spends this family's timed loops on it *)
        Gc.compact ();
        let rows = f.run ~quick:cli.quick in
        Harness.print_table f rows;
        rows)
      families
  in
  Option.iter
    (fun file ->
      match Harness.Json.write file rows with
      | Ok () -> Printf.printf "bench: wrote %s\n" file
      | Error msg -> fail 1 "bench: not overwriting %s: %s" file msg)
    cli.json;
  Option.iter
    (fun baseline ->
      if not (Harness.check ~baseline families rows) then exit 1)
    baseline
