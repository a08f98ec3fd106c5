(* Bench.Harness: the gate evaluator, the command-line parser and the
   baseline file every regression-benchmark family shares.

   Each gate kind is pinned with one row that passes and one that
   fails; the family-specific gates (dispatch's informational
   ebpf_jit_ast row, cluster's exact completed count) are pinned
   through the real family gate specs.  The baseline reader is
   outside input, so it is fuzzed: truncations and byte flips of the
   committed file must come back as [Error], never as an exception. *)

module H = Bench.Harness
module Row = H.Row

let baseline_file = "../bench/baseline.json"

let row ?(family = "t") ?(size = "quick") name metrics =
  Row.v ~family ~name ~size metrics

let family gates =
  H.Family.v "t" (fun ~quick:_ -> []) ~gates:(fun _ -> gates)

(* Names of the rows with at least one failure. *)
let failing f ~baseline rows =
  H.judge f ~baseline rows
  |> List.map (fun ((r : Row.t), _) -> r.name)
  |> List.sort_uniq compare

let strings = Alcotest.(list string)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Gate kinds                                                           *)

let gate_case gate ~base ~pass ~fail () =
  let f = family [ H.Gate.v "x" gate ] in
  let baseline = [ row "pass" [ ("x", base) ]; row "fail" [ ("x", base) ] ] in
  Alcotest.check strings "only the out-of-bound row fails" [ "fail" ]
    (failing f ~baseline
       [ row "pass" [ ("x", pass) ]; row "fail" [ ("x", fail) ] ])

let test_missing_baseline () =
  let f = family [ H.Gate.v "x" (H.Gate.Floor 1.0) ] in
  Alcotest.check strings "row without baseline fails" [ "b" ]
    (failing f
       ~baseline:[ row "a" [ ("x", 2.0) ] ]
       [ row "a" [ ("x", 2.0) ]; row "b" [ ("x", 2.0) ] ]);
  Alcotest.check strings "same name, other size is still missing" [ "a" ]
    (failing f
       ~baseline:[ row ~size:"full" "a" [ ("x", 2.0) ] ]
       [ row "a" [ ("x", 2.0) ] ]);
  Alcotest.check strings "ungated rows are never judged" []
    (failing (family []) ~baseline:[] [ row "a" [] ])

let test_absent_metric () =
  let f =
    family [ H.Gate.v "x" (H.Gate.Rel_floor 0.9); H.Gate.v "y" H.Gate.Zero ]
  in
  Alcotest.check strings "absent on either side: nothing to judge" []
    (failing f
       ~baseline:[ row "a" [ ("y", 0.0) ]; row "b" [ ("x", 5.0) ] ]
       [ row "a" [ ("x", 1.0) ]; row "b" [] ]);
  Alcotest.check strings "non-finite values are absent" []
    (failing f
       ~baseline:[ row "a" [ ("x", 5.0) ] ]
       [ row "a" [ ("x", nan) ] ])

(* ------------------------------------------------------------------ *)
(* Family gate specs                                                    *)

let test_dispatch_ast_exemption () =
  let f = Bench.Dispatch_bench.family in
  let rows ~speedup ~ast_words =
    List.map
      (fun (name, words) ->
        row ~family:"dispatch" name
          [ ("speedup", speedup); ("fast_words", words) ])
      [ ("ebpf_jit_ast", ast_words); ("select_8", 0.0) ]
  in
  let baseline = rows ~speedup:10.0 ~ast_words:0.0 in
  Alcotest.check strings "ebpf_jit_ast: relative gate exempt" [ "select_8" ]
    (failing f ~baseline (rows ~speedup:1.0 ~ast_words:0.0));
  Alcotest.check strings "ebpf_jit_ast: zero-words gate applies"
    [ "ebpf_jit_ast" ]
    (failing f ~baseline (rows ~speedup:10.0 ~ast_words:2.0))

let cluster_row ~wall ~completed =
  row ~family:"cluster" ~size:"full" "d4w2"
    [ ("wall_s", wall); ("completed", completed) ]

let test_cluster_gates () =
  let f = Bench.Cluster_bench.family in
  let baseline = [ cluster_row ~wall:0.1 ~completed:4000.0 ] in
  Alcotest.check strings "wall time is not gated" []
    (failing f ~baseline [ cluster_row ~wall:5.0 ~completed:4000.0 ]);
  Alcotest.check strings "completed must equal the baseline" [ "d4w2" ]
    (failing f ~baseline [ cluster_row ~wall:0.1 ~completed:3999.0 ])

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let test_cli () =
  let parse args =
    H.Cli.parse ~families:[ "sched"; "dispatch"; "chaos" ] args
    |> Result.to_option
    |> Option.map (fun (c : H.Cli.t) -> ((c.quick, c.only), (c.json, c.check)))
  in
  let cli =
    Alcotest.(
      option (pair (pair bool strings) (pair (option string) (option string))))
  in
  let b = Some H.Cli.baseline in
  Alcotest.check cli "no flags: every family"
    (Some ((false, []), (None, None)))
    (parse []);
  Alcotest.check cli "bare --json / --check use the baseline"
    (Some ((true, []), (b, b)))
    (parse [ "--quick"; "--json"; "--check" ]);
  Alcotest.check cli "=FILE forms"
    (Some ((false, []), (Some "out.json", Some "base.json")))
    (parse [ "--json=out.json"; "--check=base.json" ]);
  Alcotest.check cli "--only lists"
    (Some ((false, [ "sched"; "chaos"; "dispatch" ]), (None, None)))
    (parse [ "--only"; "sched,chaos"; "--only=dispatch" ]);
  List.iter
    (fun args -> Alcotest.check cli (String.concat " " args) None (parse args))
    [
      [ "--chek=BENCH.json" ];
      [ "--sched-only" ];
      [ "--only"; "shed" ];
      [ "--only=sched,"; "--quick" ];
      [ "--only" ];
      [ "table3" ];
    ]

(* ------------------------------------------------------------------ *)
(* Baseline file                                                        *)

let read_committed () =
  match H.Json.read baseline_file with
  | Ok rows -> rows
  | Error msg -> Alcotest.failf "%s: %s" baseline_file msg

let test_committed_baseline () =
  let rows = read_committed () in
  let families =
    [ "sched"; "dispatch"; "chaos"; "cluster"; "conn"; "splice" ]
  in
  let count f =
    List.length (List.filter (fun (r : Row.t) -> r.family = f) rows)
  in
  Alcotest.(check (list (pair string int)))
    "rows per family"
    (List.combine families [ 6; 12; 66; 4; 6; 6 ])
    (List.map (fun f -> (f, count f)) families);
  let keys = List.map (fun (r : Row.t) -> (r.family, r.name, r.size)) rows in
  Alcotest.(check int)
    "keys are unique" (List.length rows)
    (List.length (List.sort_uniq compare keys))

let with_temp f =
  let file = Filename.temp_file "bench_harness" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let test_merge_keeps_full_rows () =
  let full = read_committed () in
  let fresh = row ~family:"cluster" ~size:"full" "d64w1" [] in
  let quick =
    [
      row ~family:"chaos" ~size:"full" "none/hermes" [ ("p99_ms", 9.0) ];
      row ~family:"sched" "probe_storm" [ ("speedup", 7.0) ];
      fresh;
    ]
  in
  with_temp (fun file ->
      Sys.remove file;
      Alcotest.(check bool) "fresh write" true (H.Json.write file full = Ok ());
      Alcotest.(check bool)
        "quick merge" true
        (H.Json.write file quick = Ok ());
      match H.Json.read file with
      | Error msg -> Alcotest.fail msg
      | Ok merged ->
        Alcotest.(check int)
          "every old row survives, one appended"
          (List.length full + 1) (List.length merged);
        List.iter
          (fun (r : Row.t) ->
            let want =
              Option.value ~default:r (List.find_opt (Row.same_key r) quick)
            in
            if List.find_opt (Row.same_key r) merged <> Some want then
              Alcotest.failf "row %s/%s/%s not merged" r.family r.name r.size)
          full;
        Alcotest.(check bool) "new key appended" true (List.mem fresh merged));
  with_temp (fun file ->
      Out_channel.with_open_bin file (fun oc -> output_string oc "{garbage");
      Alcotest.(check bool)
        "an unreadable file is not overwritten" true
        (Result.is_error (H.Json.write file quick));
      Alcotest.(check string)
        "contents kept" "{garbage"
        (In_channel.with_open_bin file In_channel.input_all))

let test_garbled_number () =
  let s =
    {|{"schema":"hermes-bench/1","rows":[
{"family":"sched","name":"churn","size":"quick","speedup":1.2.3}]}|}
  in
  match H.Json.of_string s with
  | Ok _ -> Alcotest.fail "garbled number accepted"
  | Error msg ->
    Alcotest.(check bool) ("names the number: " ^ msg) true
      (contains msg "bad number")

let committed =
  lazy (In_channel.with_open_bin baseline_file In_channel.input_all)

let reads_as_error s =
  match H.Json.of_string s with
  | Ok _ -> None
  | Error msg -> Some (msg <> "")
  | exception e ->
    QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)

let prop_truncated =
  QCheck.Test.make ~name:"truncated baseline reads as Error" ~count:300
    QCheck.(float_bound_inclusive 1.0)
    (fun frac ->
      let s = Lazy.force committed in
      let cut = int_of_float (frac *. float_of_int (String.rindex s '}')) in
      reads_as_error (String.sub s 0 cut) = Some true)

let prop_flipped =
  QCheck.Test.make ~name:"byte-flipped baseline never raises" ~count:500
    QCheck.(
      list_of_size
        Gen.(int_range 1 4)
        (pair (float_bound_exclusive 1.0) (int_range 1 255)))
    (fun flips ->
      let b = Bytes.of_string (Lazy.force committed) in
      List.iter
        (fun (at, x) ->
          let i = int_of_float (at *. float_of_int (Bytes.length b)) in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x)))
        flips;
      reads_as_error (Bytes.to_string b) <> Some false)

let gen_row =
  QCheck.Gen.(
    let text = string_size ~gen:char (int_range 0 8) in
    map
      (fun ((family, name, size), metrics) ->
        Row.v ~family ~name ~size
          (List.map (fun (k, x) -> ("m" ^ k, x)) metrics))
      (pair (triple text text text)
         (list_size (int_range 0 6) (pair text float))))

let prop_round_trip =
  QCheck.Test.make ~name:"write then read returns the rows" ~count:300
    (QCheck.make ~print:H.Json.to_string
       QCheck.Gen.(list_size (int_range 0 12) gen_row))
    (fun rows -> H.Json.of_string (H.Json.to_string rows) = Ok rows)

let () =
  let gate name gate ~base ~pass ~fail =
    Alcotest.test_case name `Quick (gate_case gate ~base ~pass ~fail)
  in
  Alcotest.run "bench_harness"
    [
      ( "gates",
        [
          gate "relative floor" (Rel_floor 0.9) ~base:10.0 ~pass:9.0 ~fail:8.99;
          gate "absolute floor" (Floor 1.3) ~base:0.0 ~pass:1.3 ~fail:1.29;
          gate "zero words" Zero ~base:5.0 ~pass:0.0 ~fail:0.001;
          gate "exact count" Exact ~base:4000.0 ~pass:4000.0 ~fail:4001.0;
          gate "ceiling with slack" (Ceiling (1.5, 0.5)) ~base:2.0 ~pass:3.5
            ~fail:3.51;
          Alcotest.test_case "missing baseline row" `Quick
            test_missing_baseline;
          Alcotest.test_case "absent metrics" `Quick test_absent_metric;
          Alcotest.test_case "dispatch ebpf_jit_ast exemption" `Quick
            test_dispatch_ast_exemption;
          Alcotest.test_case "cluster completed gate" `Quick test_cluster_gates;
        ] );
      ("cli", [ Alcotest.test_case "flags" `Quick test_cli ]);
      ( "baseline",
        [
          Alcotest.test_case "committed rows" `Quick test_committed_baseline;
          Alcotest.test_case "merge keeps full rows" `Quick
            test_merge_keeps_full_rows;
          Alcotest.test_case "garbled number" `Quick test_garbled_number;
          QCheck_alcotest.to_alcotest prop_truncated;
          QCheck_alcotest.to_alcotest prop_flipped;
          QCheck_alcotest.to_alcotest prop_round_trip;
        ] );
    ]
