type t = {
  name : string;
  request_size : Engine.Dist.t;
  processing_time : Engine.Dist.t;
  case_weights : float array;
}

let open_dist = Engine.Dist.lognormal_of_quantiles

(* Table 1 rows.  Sizes in bytes, times in seconds.  Regions 2 and 3
   carry a small WebSocket component: few connections, but each counts
   as one enormous "request", stretching P99 while leaving P50/P90
   low — the accounting quirk §2.3 explains. *)
let region1 =
  {
    name = "Region1";
    request_size = open_dist ~p50:243.0 ~p99:2491.0;
    processing_time = open_dist ~p50:0.002 ~p99:0.042;
    case_weights = [| 0.1945; 0.0055; 0.6561; 0.1439 |];
  }

let region2 =
  {
    name = "Region2";
    request_size = open_dist ~p50:831.0 ~p99:10132.0;
    processing_time =
      Engine.Dist.mixture
        [
          (0.97, open_dist ~p50:0.009 ~p99:0.7);
          (0.03, open_dist ~p50:3.0 ~p99:30.0);
        ];
    case_weights = [| 0.0077; 0.0783; 0.0927; 0.8213 |];
  }

let region3 =
  {
    name = "Region3";
    request_size =
      Engine.Dist.mixture
        [
          (0.96, open_dist ~p50:500.0 ~p99:8000.0);
          (0.04, open_dist ~p50:40000.0 ~p99:400000.0);
        ];
    processing_time =
      Engine.Dist.mixture
        [
          (0.96, open_dist ~p50:0.0028 ~p99:0.8);
          (0.04, open_dist ~p50:8.0 ~p99:120.0);
        ];
    case_weights = [| 0.066; 0.029; 0.608; 0.297 |];
  }

let region4 =
  {
    name = "Region4";
    request_size = open_dist ~p50:721.0 ~p99:4638.0;
    processing_time = open_dist ~p50:0.004 ~p99:0.239;
    case_weights = [| 0.0281; 0.0741; 0.8907; 0.0071 |];
  }

let all = [| region1; region2; region3; region4 |]

let sample_case t rng =
  match Engine.Dist.categorical t.case_weights rng with
  | 0 -> Cases.Case1
  | 1 -> Cases.Case2
  | 2 -> Cases.Case3
  | _ -> Cases.Case4
