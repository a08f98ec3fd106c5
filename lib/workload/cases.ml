type case = Case1 | Case2 | Case3 | Case4

let all = [ Case1; Case2; Case3; Case4 ]

let name = function
  | Case1 -> "case1"
  | Case2 -> "case2"
  | Case3 -> "case3"
  | Case4 -> "case4"


type splice_axis = Short_rpc | Long_streaming

let splice_axes = [ Short_rpc; Long_streaming ]

let splice_axis_name = function
  | Short_rpc -> "short-rpc"
  | Long_streaming -> "long-streaming"

type load = Light | Medium | Heavy

let loads = [ Light; Medium; Heavy ]
let load_factor = function Light -> 1.0 | Medium -> 2.0 | Heavy -> 3.0

(* Light-load profiles target roughly 45% device utilization so the 3x
   replay pushes past saturation, reproducing Table 3's degradation
   shapes.  Utilization = cps * E[reqs/conn] * E[processing]. *)
let profile case ~workers =
  if workers <= 0 then invalid_arg "Cases.profile: workers must be positive";
  let w = float_of_int workers in
  let open Engine.Dist in
  match case with
  | Case1 ->
    (* mean processing ~ 0.21 ms; one request per connection. *)
    {
      Profile.name = "case1";
      cps = 0.45 *. w /. 0.00021;
      requests_per_conn = constant 1.0;
      request_gap = exponential ~mean:0.0003;
      request_size = lognormal_of_quantiles ~p50:300.0 ~p99:2500.0;
      processing_time = lognormal_of_quantiles ~p50:0.00012 ~p99:0.0009;
      op_mix = [ (0.8, Lb.Request.Plain_proxy); (0.2, Lb.Request.Websocket_frame) ];
      tenant_skew = 0.8;
    }
  | Case2 ->
    (* High-CPS stress traffic with compression-class work and a 1%
       hang-scale tail (the buffer-drain stalls of Appendix C); mean
       processing ~ 1.6 ms, so even "light" sits near saturation —
       this is the spike scenario the paper describes. *)
    {
      Profile.name = "case2";
      cps = 0.55 *. w /. 0.0016;
      requests_per_conn = constant 1.0;
      request_gap = exponential ~mean:0.002;
      request_size = lognormal_of_quantiles ~p50:4000.0 ~p99:60000.0;
      processing_time =
        mixture
          [
            (0.99, lognormal_of_quantiles ~p50:0.0004 ~p99:0.004);
            (0.01, lognormal_of_quantiles ~p50:0.05 ~p99:0.5);
          ];
      op_mix = [ (0.7, Lb.Request.Compress); (0.3, Lb.Request.Ssl_record) ];
      tenant_skew = 0.8;
    }
  | Case3 ->
    (* Long-lived connections: ~200 requests each, 50 ms apart, tiny
       processing (~75 us mean). *)
    {
      Profile.name = "case3";
      cps = 0.45 *. w /. (200.0 *. 0.000075);
      requests_per_conn = uniform ~lo:100.0 ~hi:300.0;
      request_gap = exponential ~mean:0.05;
      request_size = lognormal_of_quantiles ~p50:250.0 ~p99:1500.0;
      processing_time = lognormal_of_quantiles ~p50:0.00005 ~p99:0.0003;
      op_mix =
        [ (0.6, Lb.Request.Plain_proxy); (0.4, Lb.Request.Websocket_frame) ];
      tenant_skew = 0.8;
    }
  | Case4 ->
    (* Web services: a few expensive requests per connection (SSL
       handshake + regex routing) and a 3% stall tail; mean processing
       ~ 13 ms. *)
    {
      Profile.name = "case4";
      cps = 0.45 *. w /. (3.0 *. 0.0133);
      requests_per_conn = uniform ~lo:2.0 ~hi:4.999;
      request_gap = exponential ~mean:0.1;
      request_size = lognormal_of_quantiles ~p50:700.0 ~p99:4600.0;
      processing_time =
        mixture
          [
            (0.97, lognormal_of_quantiles ~p50:0.003 ~p99:0.030);
            (0.03, lognormal_of_quantiles ~p50:0.15 ~p99:1.5);
          ];
      op_mix =
        [
          (0.4, Lb.Request.Ssl_handshake);
          (0.4, Lb.Request.Regex_route);
          (0.2, Lb.Request.Protocol_translate);
        ];
      tenant_skew = 0.8;
    }

(* The splice axis varies the bytes-per-connection ratio that decides
   whether kernel-side forwarding pays: short RPCs amortize the attach
   over a handful of sub-KB exchanges, streams over hundreds of 64 KiB
   chunks.  Processing times approximate the userspace proxy's
   forwarding cost for the median chunk ([Lb.Request.default_cost] of
   a plain proxy op), so the splice mode's kernel-cycle pricing and
   the proxy baseline measure the same logical work. *)
let splice_profile axis ~workers =
  if workers <= 0 then
    invalid_arg "Cases.splice_profile: workers must be positive";
  let w = float_of_int workers in
  let open Engine.Dist in
  match axis with
  | Short_rpc ->
    (* Four ~600 B exchanges per connection, ~35 us of proxy work
       each: bypassing the copies saves almost nothing, only the two
       syscalls. *)
    {
      Profile.name = "short-rpc";
      cps = 0.45 *. w /. (4.0 *. 0.000035);
      requests_per_conn = constant 4.0;
      request_gap = exponential ~mean:0.001;
      request_size = lognormal_of_quantiles ~p50:600.0 ~p99:3000.0;
      processing_time = lognormal_of_quantiles ~p50:0.000033 ~p99:0.00012;
      op_mix = [ (1.0, Lb.Request.Plain_proxy) ];
      tenant_skew = 0.8;
    }
  | Long_streaming ->
    (* ~100 chunks of 64 KiB median per connection, 20 ms apart;
       proxying one chunk costs ~160 us of copyin/copyout, which is
       exactly what the sockmap redirect elides. *)
    {
      Profile.name = "long-streaming";
      cps = 0.45 *. w /. (100.0 *. 0.00016);
      requests_per_conn = uniform ~lo:50.0 ~hi:150.0;
      request_gap = exponential ~mean:0.02;
      request_size = lognormal_of_quantiles ~p50:65536.0 ~p99:262144.0;
      processing_time = lognormal_of_quantiles ~p50:0.00016 ~p99:0.0006;
      op_mix =
        [ (0.8, Lb.Request.Plain_proxy); (0.2, Lb.Request.Websocket_frame) ];
      tenant_skew = 0.8;
    }
