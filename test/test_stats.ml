(* Tests for the stats library: histograms, summaries, table
   rendering. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Histogram                                                            *)

let test_hist_empty () =
  let h = Stats.Histogram.create () in
  check Alcotest.int "count" 0 (Stats.Histogram.count h);
  check (Alcotest.float 0.0) "mean" 0.0 (Stats.Histogram.mean h);
  check (Alcotest.float 0.0) "p99" 0.0 (Stats.Histogram.percentile h 99.0)

let test_hist_single () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.record h 42.0;
  check (Alcotest.float 0.0) "mean" 42.0 (Stats.Histogram.mean h);
  check (Alcotest.float 0.0) "p0" 42.0 (Stats.Histogram.percentile h 0.0);
  check (Alcotest.float 0.0) "p100" 42.0 (Stats.Histogram.percentile h 100.0);
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
  check (Alcotest.float 0.0) "true value kept in the mean" 1e9 (Stats.Histogram.mean h)

let test_hist_reset () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.record h 5.0;
  Stats.Histogram.reset h;
  check Alcotest.int "count" 0 (Stats.Histogram.count h);
  Stats.Histogram.record h 7.0;
  check (Alcotest.float 0.0) "fresh mean" 7.0 (Stats.Histogram.mean h)

let prop_hist_percentile_bounded =
  QCheck.Test.make ~name:"percentile within [min,max]" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (float_range 0.0 1e9))
    (fun xs ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.record h) xs;
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
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
  check (Alcotest.float 0.0) "stddev of empty" 0.0 (Stats.Summary.stddev [||])

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
          Alcotest.test_case "negative rejected" `Quick test_hist_negative_rejected;
          Alcotest.test_case "clamp to max" `Quick test_hist_clamp_to_max;
          Alcotest.test_case "reset" `Quick test_hist_reset;
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
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row mismatch" `Quick test_table_row_mismatch;
          Alcotest.test_case "cell formatting" `Quick test_table_cells;
        ] );
    ]
