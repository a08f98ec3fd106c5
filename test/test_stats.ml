(* Tests for the stats library: histograms, summaries, time series,
   table rendering. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Histogram                                                            *)

let test_hist_empty () =
  let h = Stats.Histogram.create () in
  check Alcotest.int "count" 0 (Stats.Histogram.count h);
  check (Alcotest.float 0.0) "mean" 0.0 (Stats.Histogram.mean h);
  check (Alcotest.float 0.0) "p99" 0.0 (Stats.Histogram.percentile h 99.0);
  check Alcotest.(list (pair (float 0.) (float 0.))) "cdf" []
    (Stats.Histogram.cdf_points h)

let test_hist_single () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.record h 42.0;
  check (Alcotest.float 0.0) "mean" 42.0 (Stats.Histogram.mean h);
  check (Alcotest.float 0.0) "min" 42.0 (Stats.Histogram.min_value h);
  check (Alcotest.float 0.0) "max" 42.0 (Stats.Histogram.max_value h);
  check (Alcotest.float 1.0) "p50 near" 42.0 (Stats.Histogram.percentile h 50.0)

let test_hist_percentile_accuracy () =
  (* Uniform 1..10000; bucketed percentiles must be within ~1.5%. *)
  let h = Stats.Histogram.create () in
  for i = 1 to 10_000 do
    Stats.Histogram.record h (float_of_int i)
  done;
  List.iter
    (fun p ->
      let expected = p /. 100.0 *. 10_000.0 in
      let got = Stats.Histogram.percentile h p in
      check Alcotest.bool
        (Printf.sprintf "p%.0f within 1.5%%" p)
        true
        (Float.abs (got -. expected) /. expected < 0.015))
    [ 10.0; 50.0; 90.0; 99.0 ]

let test_hist_record_n () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.record_n h 5.0 10;
  check Alcotest.int "count" 10 (Stats.Histogram.count h);
  check (Alcotest.float 1e-6) "total" 50.0 (Stats.Histogram.total h)

let test_hist_negative_rejected () =
  let h = Stats.Histogram.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Histogram.record: negative value") (fun () ->
      Stats.Histogram.record h (-1.0))

let test_hist_clamp_to_max () =
  let h = Stats.Histogram.create ~max_value:1e6 () in
  Stats.Histogram.record h 1e9;
  check Alcotest.int "recorded" 1 (Stats.Histogram.count h);
  (* the value lands in the top bucket; the true maximum is tracked *)
  let p100 = Stats.Histogram.percentile h 100.0 in
  check Alcotest.bool "p100 at or above the clamp" true (p100 >= 0.9e6);
  check (Alcotest.float 0.0) "true max kept" 1e9 (Stats.Histogram.max_value h)

let test_hist_merge () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  for i = 1 to 100 do
    Stats.Histogram.record a (float_of_int i)
  done;
  for i = 101 to 200 do
    Stats.Histogram.record b (float_of_int i)
  done;
  Stats.Histogram.merge_into ~src:b ~dst:a;
  check Alcotest.int "merged count" 200 (Stats.Histogram.count a);
  check Alcotest.bool "p50 near 100" true
    (Float.abs (Stats.Histogram.percentile a 50.0 -. 100.0) < 5.0)

let test_hist_reset () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.record h 5.0;
  Stats.Histogram.reset h;
  check Alcotest.int "count" 0 (Stats.Histogram.count h);
  Stats.Histogram.record h 7.0;
  check (Alcotest.float 0.0) "fresh mean" 7.0 (Stats.Histogram.mean h)

let test_hist_cdf_monotone () =
  let h = Stats.Histogram.create () in
  let rng = Engine.Rng.create 3 in
  for _ = 1 to 1000 do
    Stats.Histogram.record h (Engine.Rng.float rng 1e6)
  done;
  let points = Stats.Histogram.cdf_points h in
  let rec walk = function
    | (v1, f1) :: ((v2, f2) :: _ as rest) ->
      check Alcotest.bool "values increase" true (v2 > v1);
      check Alcotest.bool "fractions increase" true (f2 >= f1);
      walk rest
    | [ (_, f) ] -> check (Alcotest.float 1e-9) "ends at 1" 1.0 f
    | [] -> Alcotest.fail "no points"
  in
  walk points

let test_hist_stddev () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.record h) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check Alcotest.bool "sd = 2" true (Float.abs (Stats.Histogram.stddev h -. 2.0) < 1e-6)

let test_hist_stddev_large_offset () =
  (* Regression: the old sum-of-squares formula cancels catastrophically
     for tight distributions around a large mean — exactly the shape of
     ns timestamps near 1e9.  Welford must agree with the exact
     two-pass computation. *)
  let base = 1e9 in
  let offsets = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  let xs = Array.map (fun o -> base +. o) offsets in
  let h = Stats.Histogram.create () in
  Array.iter (Stats.Histogram.record h) xs;
  let exact = Stats.Summary.stddev xs in
  check (Alcotest.float 1e-3) "welford matches exact at 1e9" exact
    (Stats.Histogram.stddev h);
  check Alcotest.bool "and it is the known value 2" true
    (Float.abs (Stats.Histogram.stddev h -. 2.0) < 1e-3)

let test_hist_merge_layout_mismatch () =
  (* Same bucket-array length can arise from different layouts; the
     check must compare layout parameters, not lengths. *)
  let a = Stats.Histogram.create ~significant_digits:2 ~max_value:1e12 () in
  let b = Stats.Histogram.create ~significant_digits:2 ~max_value:1e11 () in
  Alcotest.check_raises "different max_value"
    (Invalid_argument "Histogram.merge_into: layout mismatch") (fun () ->
      Stats.Histogram.merge_into ~src:b ~dst:a);
  let c = Stats.Histogram.create ~significant_digits:3 () in
  Alcotest.check_raises "different resolution"
    (Invalid_argument "Histogram.merge_into: layout mismatch") (fun () ->
      Stats.Histogram.merge_into ~src:c ~dst:a)

let test_hist_merge_moments () =
  (* Chan's combine: stddev of a merged histogram equals the stddev of
     recording everything into one, including with a large offset. *)
  let xs = Array.init 500 (fun i -> 1e9 +. float_of_int (i mod 37)) in
  let ys = Array.init 300 (fun i -> 1e9 +. float_of_int ((i * 7) mod 53)) in
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  let all = Stats.Histogram.create () in
  Array.iter (Stats.Histogram.record a) xs;
  Array.iter (Stats.Histogram.record b) ys;
  Array.iter (Stats.Histogram.record all) xs;
  Array.iter (Stats.Histogram.record all) ys;
  Stats.Histogram.merge_into ~src:b ~dst:a;
  check (Alcotest.float 1e-6) "merged stddev = combined stddev"
    (Stats.Histogram.stddev all) (Stats.Histogram.stddev a);
  check (Alcotest.float 1e-3) "merged mean = combined mean"
    (Stats.Histogram.mean all) (Stats.Histogram.mean a);
  (* merging into an empty histogram is the identity *)
  let empty_dst = Stats.Histogram.create () in
  Stats.Histogram.merge_into ~src:all ~dst:empty_dst;
  check (Alcotest.float 1e-6) "merge into empty"
    (Stats.Histogram.stddev all)
    (Stats.Histogram.stddev empty_dst)

let prop_hist_percentile_bounded =
  QCheck.Test.make ~name:"percentile within [min,max]" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (float_range 0.0 1e9))
    (fun xs ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.record h) xs;
      let lo = Stats.Histogram.min_value h in
      let hi = Stats.Histogram.max_value h in
      List.for_all
        (fun p ->
          let v = Stats.Histogram.percentile h p in
          v >= lo *. 0.95 && v <= hi +. 1e-9)
        [ 0.0; 25.0; 50.0; 75.0; 99.0; 100.0 ])

(* ------------------------------------------------------------------ *)
(* Summary                                                              *)

let test_summary_known () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.Summary.mean xs);
  check (Alcotest.float 1e-9) "stddev" 2.0 (Stats.Summary.stddev xs);
  let lo, hi = Stats.Summary.min_max xs in
  check (Alcotest.float 0.0) "min" 2.0 lo;
  check (Alcotest.float 0.0) "max" 9.0 hi

let test_summary_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check (Alcotest.float 0.0) "p50" 50.0 (Stats.Summary.percentile xs 50.0);
  check (Alcotest.float 0.0) "p99" 99.0 (Stats.Summary.percentile xs 99.0);
  check (Alcotest.float 0.0) "p100" 100.0 (Stats.Summary.percentile xs 100.0);
  check (Alcotest.float 0.0) "p0 -> first" 1.0 (Stats.Summary.percentile xs 0.0)

let test_summary_percentile_total_order () =
  (* [Array.sort compare] on floats is polymorphic comparison — it
     happens to order plain floats, but NaN poisons it with
     inconsistent ranks.  percentile must use the total Float.compare
     order and reject NaN outright. *)
  let xs = [| 5.0; 1.0; nan; 3.0 |] in
  Alcotest.check_raises "NaN rejected"
    (Invalid_argument "Summary.percentile: NaN input") (fun () ->
      ignore (Stats.Summary.percentile xs 50.0));
  (* infinities have well-defined ranks *)
  let ys = [| neg_infinity; 1.0; infinity; 2.0 |] in
  check (Alcotest.float 0.0) "p0 is -inf" neg_infinity
    (Stats.Summary.percentile ys 0.0);
  check (Alcotest.float 0.0) "p100 is +inf" infinity
    (Stats.Summary.percentile ys 100.0);
  (* negative zero sorts before positive zero, result is still a zero *)
  check (Alcotest.float 0.0) "signed zeros" 0.0
    (Float.abs (Stats.Summary.percentile [| 0.0; -0.0 |] 50.0))

let test_summary_empty () =
  check (Alcotest.float 0.0) "mean of empty" 0.0 (Stats.Summary.mean [||]);
  check (Alcotest.float 0.0) "stddev of empty" 0.0 (Stats.Summary.stddev [||]);
  let s = Stats.Summary.of_array [||] in
  check Alcotest.int "n" 0 s.Stats.Summary.n

let test_jain_fairness () =
  check (Alcotest.float 1e-9) "perfectly fair" 1.0
    (Stats.Summary.jain_fairness [| 5.0; 5.0; 5.0; 5.0 |]);
  check (Alcotest.float 1e-9) "max skew" 0.25
    (Stats.Summary.jain_fairness [| 1.0; 0.0; 0.0; 0.0 |])

let test_cov () =
  check (Alcotest.float 1e-9) "zero mean" 0.0
    (Stats.Summary.coefficient_of_variation [| 0.0; 0.0 |]);
  check (Alcotest.float 1e-9) "cov" 0.4
    (Stats.Summary.coefficient_of_variation [| 3.0; 7.0 |])

(* ------------------------------------------------------------------ *)
(* Timeseries                                                           *)

let test_ts_basic () =
  let ts = Stats.Timeseries.create ~name:"x" () in
  Stats.Timeseries.add ts ~time:0.0 ~value:1.0;
  Stats.Timeseries.add ts ~time:1.0 ~value:3.0;
  check Alcotest.int "length" 2 (Stats.Timeseries.length ts);
  check Alcotest.string "name" "x" (Stats.Timeseries.name ts);
  (match Stats.Timeseries.last ts with
  | Some (t, v) ->
    check (Alcotest.float 0.0) "last t" 1.0 t;
    check (Alcotest.float 0.0) "last v" 3.0 v
  | None -> Alcotest.fail "expected last")

let test_ts_monotone_enforced () =
  let ts = Stats.Timeseries.create () in
  Stats.Timeseries.add ts ~time:5.0 ~value:0.0;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Timeseries.add: time went backwards") (fun () ->
      Stats.Timeseries.add ts ~time:4.0 ~value:0.0)

let test_ts_window_mean () =
  let ts = Stats.Timeseries.create () in
  for i = 0 to 9 do
    Stats.Timeseries.add ts ~time:(float_of_int i) ~value:(float_of_int i)
  done;
  check (Alcotest.float 1e-9) "window [2,5)" 3.0
    (Stats.Timeseries.window_mean ts ~lo:2.0 ~hi:5.0);
  check (Alcotest.float 0.0) "empty window" 0.0
    (Stats.Timeseries.window_mean ts ~lo:100.0 ~hi:200.0)

let test_ts_downsample () =
  let ts = Stats.Timeseries.create () in
  for i = 0 to 99 do
    Stats.Timeseries.add ts ~time:(float_of_int i) ~value:1.0
  done;
  let d = Stats.Timeseries.downsample ts ~every:10.0 in
  check Alcotest.int "10 buckets" 10 (Stats.Timeseries.length d);
  Array.iter
    (fun (_, v) -> check (Alcotest.float 1e-9) "bucket mean" 1.0 v)
    (Stats.Timeseries.points d)

let test_ts_growth () =
  let ts = Stats.Timeseries.create () in
  for i = 0 to 999 do
    Stats.Timeseries.add ts ~time:(float_of_int i) ~value:0.0
  done;
  check Alcotest.int "1000 points" 1000 (Stats.Timeseries.length ts)

(* ------------------------------------------------------------------ *)
(* Table                                                                *)

let test_table_render () =
  let t = Stats.Table.create ~header:[ "a"; "bb" ] in
  Stats.Table.add_row t [ "x"; "y" ];
  Stats.Table.add_row t [ "long-cell"; "z" ];
  let s = Stats.Table.render t in
  check Alcotest.bool "has header" true
    (String.length s > 0
    &&
    match String.index_opt s 'a' with Some _ -> true | None -> false);
  (* all lines share the same width geometry: header cell padded *)
  let lines = String.split_on_char '\n' s in
  check Alcotest.bool "several lines" true (List.length lines >= 4)

let test_table_row_mismatch () =
  let t = Stats.Table.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "wrong width"
    (Invalid_argument "Table.add_row: expected 2 cells, got 1") (fun () ->
      Stats.Table.add_row t [ "only" ])

let test_table_cells () =
  check Alcotest.string "zero" "0" (Stats.Table.cell_f 0.0);
  check Alcotest.string "small" "1.234" (Stats.Table.cell_f 1.2341);
  check Alcotest.string "tens" "12.34" (Stats.Table.cell_f 12.341);
  check Alcotest.string "hundreds" "123.4" (Stats.Table.cell_f 123.41);
  check Alcotest.string "pct" "12.30%" (Stats.Table.cell_pct 0.123)

(* [record] keeps its accumulators unboxed: recording an already boxed
   value allocates nothing.  The values sit in options because a float
   array stores them unboxed and reading one out would box it. *)
let test_hist_record_zero_alloc () =
  let h = Stats.Histogram.create () in
  let values = Array.init 64 (fun i -> Some (float_of_int (i * i * 997))) in
  Alloc_gate.check "Histogram.record" (fun i ->
      Stats.Histogram.record h (Option.get values.(i land 63)))

let () =
  Alcotest.run "stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "single" `Quick test_hist_single;
          Alcotest.test_case "percentile accuracy" `Quick test_hist_percentile_accuracy;
          Alcotest.test_case "record_n" `Quick test_hist_record_n;
          Alcotest.test_case "negative rejected" `Quick test_hist_negative_rejected;
          Alcotest.test_case "clamp to max" `Quick test_hist_clamp_to_max;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "reset" `Quick test_hist_reset;
          Alcotest.test_case "cdf monotone" `Quick test_hist_cdf_monotone;
          Alcotest.test_case "stddev" `Quick test_hist_stddev;
          Alcotest.test_case "stddev at 1e9 offset" `Quick
            test_hist_stddev_large_offset;
          Alcotest.test_case "merge layout mismatch" `Quick
            test_hist_merge_layout_mismatch;
          Alcotest.test_case "merge combines moments" `Quick test_hist_merge_moments;
          Alcotest.test_case "record allocates nothing" `Quick test_hist_record_zero_alloc;
          QCheck_alcotest.to_alcotest prop_hist_percentile_bounded;
        ] );
      ( "summary",
        [
          Alcotest.test_case "known values" `Quick test_summary_known;
          Alcotest.test_case "percentile" `Quick test_summary_percentile;
          Alcotest.test_case "percentile total order" `Quick
            test_summary_percentile_total_order;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "jain fairness" `Quick test_jain_fairness;
          Alcotest.test_case "cov" `Quick test_cov;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "basic" `Quick test_ts_basic;
          Alcotest.test_case "monotone enforced" `Quick test_ts_monotone_enforced;
          Alcotest.test_case "window mean" `Quick test_ts_window_mean;
          Alcotest.test_case "downsample" `Quick test_ts_downsample;
          Alcotest.test_case "growth" `Quick test_ts_growth;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row mismatch" `Quick test_table_row_mismatch;
          Alcotest.test_case "cell formatting" `Quick test_table_cells;
        ] );
    ]
