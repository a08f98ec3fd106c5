(* Tests for the engine library: deterministic RNG, distributions,
   simulated time, and the discrete-event simulator. *)

let check = Alcotest.check
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)

let test_rng_determinism () =
  let a = Engine.Rng.create 42 and b = Engine.Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Engine.Rng.bits53 a) (Engine.Rng.bits53 b)
  done

let test_rng_seed_sensitivity () =
  let a = Engine.Rng.create 1 and b = Engine.Rng.create 2 in
  let differ = ref false in
  for _ = 1 to 10 do
    if Engine.Rng.bits53 a <> Engine.Rng.bits53 b then differ := true
  done;
  check Alcotest.bool "streams differ" true !differ

let test_rng_split_differs () =
  let a = Engine.Rng.create 7 in
  let b = Engine.Rng.split a in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Engine.Rng.bits53 a = Engine.Rng.bits53 b then incr same
  done;
  check Alcotest.bool "split stream is distinct" true (!same < 5)

let test_rng_int_bounds () =
  let rng = Engine.Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Engine.Rng.int rng 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let rng = Engine.Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Engine.Rng.int rng 0))

let test_rng_unit_float_range () =
  let rng = Engine.Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Engine.Rng.float rng 1.0 in
    check Alcotest.bool "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_uniformity () =
  (* chi-square-ish sanity: 10 buckets, 50k draws, each within 20% of
     expected. *)
  let rng = Engine.Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let b = Engine.Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      check Alcotest.bool "bucket near expected" true
        (abs (c - (n / 10)) < n / 50))
    buckets

(* ------------------------------------------------------------------ *)
(* Dist                                                                 *)

let sample_mean dist seed n =
  let rng = Engine.Rng.create seed in
  Engine.Dist.mean_of dist rng n

let test_dist_constant () =
  let rng = Engine.Rng.create 1 in
  checkf "constant" 4.5 (Engine.Dist.sample (Engine.Dist.constant 4.5) rng)

let test_dist_exponential_mean () =
  let m = sample_mean (Engine.Dist.exponential ~mean:3.0) 2 100_000 in
  check Alcotest.bool "mean close" true (Float.abs (m -. 3.0) < 0.1)

let test_dist_uniform_bounds () =
  let rng = Engine.Rng.create 3 in
  let d = Engine.Dist.uniform ~lo:2.0 ~hi:5.0 in
  for _ = 1 to 1000 do
    let v = Engine.Dist.sample d rng in
    check Alcotest.bool "in [2,5)" true (v >= 2.0 && v < 5.0)
  done

let test_dist_bounded_pareto () =
  let rng = Engine.Rng.create 5 in
  let d = Engine.Dist.bounded_pareto ~shape:1.2 ~lo:1.0 ~hi:100.0 in
  for _ = 1 to 5000 do
    let v = Engine.Dist.sample d rng in
    check Alcotest.bool "in bounds" true (v >= 0.999 && v <= 100.001)
  done

let quantile_of dist seed n p =
  let rng = Engine.Rng.create seed in
  let xs = Array.init n (fun _ -> Engine.Dist.sample dist rng) in
  Stats.Summary.percentile xs p

let test_dist_lognormal_quantiles () =
  let d = Engine.Dist.lognormal_of_quantiles ~p50:10.0 ~p99:200.0 in
  let p50 = quantile_of d 6 100_000 50.0 in
  let p99 = quantile_of d 6 100_000 99.0 in
  check Alcotest.bool "p50 fit" true (Float.abs (p50 -. 10.0) /. 10.0 < 0.05);
  check Alcotest.bool "p99 fit" true (Float.abs (p99 -. 200.0) /. 200.0 < 0.15)

let test_dist_lognormal_invalid () =
  Alcotest.check_raises "bad quantiles"
    (Invalid_argument "Dist.lognormal_of_quantiles: need 0 < p50 < p99")
    (fun () -> ignore (Engine.Dist.lognormal_of_quantiles ~p50:5.0 ~p99:5.0))

let test_dist_mixture_weights () =
  (* weight 3:1 between constants 0 and 1 -> mean ~ 0.25 *)
  let d =
    Engine.Dist.mixture
      [ (3.0, Engine.Dist.constant 0.0); (1.0, Engine.Dist.constant 1.0) ]
  in
  let m = sample_mean d 7 100_000 in
  check Alcotest.bool "mixture mean" true (Float.abs (m -. 0.25) < 0.01)

let test_dist_mixture_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Dist.mixture: empty")
    (fun () -> ignore (Engine.Dist.mixture []))

let test_zipf_sampling () =
  let z = Engine.Dist.Zipf.create ~n:10 ~s:1.2 in
  let rng = Engine.Rng.create 9 in
  let counts = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let k = Engine.Dist.Zipf.sample z rng in
    check Alcotest.bool "rank in range" true (k >= 0 && k < 10);
    counts.(k) <- counts.(k) + 1
  done;
  (* rank 0 should be the most frequent *)
  Array.iteri
    (fun i c -> if i > 0 then check Alcotest.bool "monotone-ish" true (counts.(0) >= c))
    counts

let test_categorical () =
  let rng = Engine.Rng.create 10 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Engine.Dist.categorical [| 1.0; 2.0; 1.0 |] rng in
    counts.(i) <- counts.(i) + 1
  done;
  check Alcotest.bool "middle is heaviest" true
    (counts.(1) > counts.(0) && counts.(1) > counts.(2));
  Alcotest.check_raises "zero total"
    (Invalid_argument "Dist.categorical: zero total weight") (fun () ->
      ignore (Engine.Dist.categorical [| 0.0; 0.0 |] rng))

(* ------------------------------------------------------------------ *)
(* Sampling: bit-identity against the closure-based reference          *)

(* What the property drives, in both implementations. *)
module type SAMPLER = sig
  module Rng : sig
    type t

    val create : int -> t
    val split : t -> t
    val bits53 : t -> int
    val int : t -> int -> int
    val float : t -> float -> float
  end

  module Dist : sig
    type t

    val sample : t -> Rng.t -> float
    val constant : float -> t
    val uniform : lo:float -> hi:float -> t
    val exponential : mean:float -> t
    val bounded_pareto : shape:float -> lo:float -> hi:float -> t
    val lognormal_of_quantiles : p50:float -> p99:float -> t
    val mixture : (float * t) list -> t

    module Zipf : sig
      type t

      val create : n:int -> s:float -> t
      val sample : t -> Rng.t -> int
    end

    val categorical : float array -> Rng.t -> int
  end
end

type dspec =
  | Const of float
  | Unif of float * float (* lo, hi *)
  | Expo of float (* mean *)
  | Bpar of float * float * float (* shape, lo, hi *)
  | Logn of float * float (* p50, p99 *)
  | Mix of (float * dspec) list

type sop =
  | Sample of dspec * int (* draws *)
  | Categorical of float array
  | Zipf of int * float * int (* n, s, draws *)
  | Int of int (* bound *)
  | Float of float (* bound *)
  | Bits53
  | Split (* later ops draw from the child *)

type out = Bits of int64 | Raised of string

module Run (S : SAMPLER) = struct
  let rec dist = function
    | Const v -> S.Dist.constant v
    | Unif (lo, hi) -> S.Dist.uniform ~lo ~hi
    | Expo mean -> S.Dist.exponential ~mean
    | Bpar (shape, lo, hi) -> S.Dist.bounded_pareto ~shape ~lo ~hi
    | Logn (p50, p99) -> S.Dist.lognormal_of_quantiles ~p50 ~p99
    | Mix parts -> S.Dist.mixture (List.map (fun (w, d) -> (w, dist d)) parts)

  (* Every draw as its bit pattern, then one [bits53] of every
     generator the run made, the original included. *)
  let run seed ops =
    let out = ref [] in
    let int i = out := Bits (Int64.of_int i) :: !out in
    let float f = out := Bits (Int64.bits_of_float f) :: !out in
    let gens = ref [ S.Rng.create seed ] in
    List.iter
      (fun op ->
        let g = List.hd !gens in
        try
          match op with
          | Sample (d, n) ->
            let d = dist d in
            for _ = 1 to n do
              float (S.Dist.sample d g)
            done
          | Categorical w -> int (S.Dist.categorical w g)
          | Zipf (n, s, draws) ->
            let z = S.Dist.Zipf.create ~n ~s in
            for _ = 1 to draws do
              int (S.Dist.Zipf.sample z g)
            done
          | Int bound -> int (S.Rng.int g bound)
          | Float bound -> float (S.Rng.float g bound)
          | Bits53 -> int (S.Rng.bits53 g)
          | Split -> gens := S.Rng.split g :: !gens
        with Invalid_argument m -> out := Raised m :: !out)
      ops;
    List.iter (fun g -> out := Bits (Int64.of_int (S.Rng.bits53 g)) :: !out) !gens;
    List.rev !out
end

module Unboxed = Run (Engine)

module Reference = Run (struct
  module Rng = struct
    include Sampling_ref.Rng

    let bits53 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11)
  end

  module Dist = Sampling_ref.Dist
end)

let rec print_dspec = function
  | Const v -> Printf.sprintf "constant %h" v
  | Unif (lo, hi) -> Printf.sprintf "uniform %h %h" lo hi
  | Expo m -> Printf.sprintf "exponential %h" m
  | Bpar (a, lo, hi) -> Printf.sprintf "bounded_pareto %h %h %h" a lo hi
  | Logn (p50, p99) -> Printf.sprintf "lognormal %h %h" p50 p99
  | Mix parts ->
    Printf.sprintf "mixture [%s]"
      (String.concat "; "
         (List.map (fun (w, d) -> Printf.sprintf "%h, %s" w (print_dspec d)) parts))

let print_sop = function
  | Sample (d, n) -> Printf.sprintf "sample x%d (%s)" n (print_dspec d)
  | Categorical w ->
    Printf.sprintf "categorical [|%s|]"
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") w)))
  | Zipf (n, s, draws) -> Printf.sprintf "zipf n=%d s=%h x%d" n s draws
  | Int b -> Printf.sprintf "int %d" b
  | Float b -> Printf.sprintf "float %h" b
  | Bits53 -> "bits53"
  | Split -> "split"

let gen_dspec =
  let open QCheck.Gen in
  let pos = float_range in
  let leaf =
    oneof
      [
        map (fun v -> Const v) (float_range (-1e3) 1e3);
        map2 (fun lo w -> Unif (lo, lo +. w)) (float_range (-1e3) 1e3) (pos 0.0 1e3);
        map (fun m -> Expo m) (pos 1e-6 1e3);
        map3
          (fun a lo r -> Bpar (a, lo, lo *. (1.0 +. r)))
          (pos 0.1 3.0) (pos 1e-3 100.0) (pos 1e-3 1e4);
        map2 (fun p50 r -> Logn (p50, p50 *. (1.0 +. r))) (pos 1e-6 1e4) (pos 1e-3 100.0);
      ]
  in
  let weight = frequency [ (1, return 0.0); (4, pos 1e-3 10.0) ] in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            ( 2,
              map
                (fun parts -> Mix parts)
                (list_size (int_range 1 4) (pair weight (self (depth - 1)))) );
          ])
    3

let gen_sop =
  let open QCheck.Gen in
  let bound =
    oneof
      [
        int_range (-2) 0;
        int_range 1 100;
        map (fun k -> 1 lsl k) (int_range 0 61);
        map (fun d -> max_int - d) (int_range 0 1000);
        map (fun x -> max 1 (x land max_int)) int;
      ]
  in
  let cat_weight =
    frequency [ (2, return 0.0); (6, float_range 1e-3 10.0); (1, float_range (-1.0) (-1e-3)) ]
  in
  frequency
    [
      (6, map2 (fun d n -> Sample (d, n)) gen_dspec (int_range 1 20));
      (3, map (fun w -> Categorical w) (array_size (int_range 0 6) cat_weight));
      ( 2,
        map3 (fun n s k -> Zipf (n, s, k)) (int_range 1 200) (float_range 0.0 2.5)
          (int_range 1 10) );
      (3, map (fun b -> Int b) bound);
      (1, map (fun b -> Float b) (float_range (-1e6) 1e6));
      (1, return Bits53);
      (1, return Split);
    ]

(* Every draw is compared bit for bit. The name is short enough that
   Alcotest prints it whole, so the reported name does not shift when
   the widest group name in this suite changes. *)
let prop_sampling_matches_reference =
  let gen = QCheck.Gen.(pair int (list_size (int_range 1 40) gen_sop)) in
  let print (seed, ops) =
    Printf.sprintf "seed %d: %s" seed (String.concat "; " (List.map print_sop ops))
  in
  QCheck.Test.make ~name:"draws match the closure reference bit" ~count:2000
    (QCheck.make gen ~print) (fun (seed, ops) ->
      Unboxed.run seed ops = Reference.run seed ops)

(* ------------------------------------------------------------------ *)
(* Sim_time                                                             *)

let test_time_units () =
  check Alcotest.int "us" 1_000 (Engine.Sim_time.us 1);
  check Alcotest.int "ms" 1_000_000 (Engine.Sim_time.ms 1);
  check Alcotest.int "sec" 1_000_000_000 (Engine.Sim_time.sec 1);
  check Alcotest.int "hours" (3600 * 1_000_000_000) (Engine.Sim_time.hours 1)

let test_time_float_conversions () =
  checkf "to_sec_f" 1.5 (Engine.Sim_time.to_sec_f (Engine.Sim_time.ms 1500));
  check Alcotest.int "of_sec_f" (Engine.Sim_time.ms 1500)
    (Engine.Sim_time.of_sec_f 1.5);
  check Alcotest.int "of_us_f" 2_500 (Engine.Sim_time.of_us_f 2.5)

let test_time_pp () =
  check Alcotest.string "ns" "5ns" (Engine.Sim_time.to_string 5);
  check Alcotest.string "us" "2.50us" (Engine.Sim_time.to_string 2_500);
  check Alcotest.string "ms" "3.00ms" (Engine.Sim_time.to_string 3_000_000);
  check Alcotest.string "s" "4.000s" (Engine.Sim_time.to_string 4_000_000_000)

(* ------------------------------------------------------------------ *)
(* Sim                                                                  *)

let test_sim_ordering () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.Sim.schedule sim ~at:30 (note "c"));
  ignore (Engine.Sim.schedule sim ~at:10 (note "a"));
  ignore (Engine.Sim.schedule sim ~at:20 (note "b"));
  Engine.Sim.run sim;
  check Alcotest.(list string) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_sim_tie_fifo () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.Sim.schedule sim ~at:5 (fun () -> log := i :: !log))
  done;
  Engine.Sim.run sim;
  check Alcotest.(list int) "ties FIFO" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_sim_clock_advances () =
  let sim = Engine.Sim.create () in
  let seen = ref (-1) in
  ignore (Engine.Sim.schedule sim ~at:123 (fun () -> seen := Engine.Sim.now sim));
  Engine.Sim.run sim;
  check Alcotest.int "now at event time" 123 !seen

let test_sim_schedule_in_past () =
  let sim = Engine.Sim.create () in
  ignore (Engine.Sim.schedule sim ~at:100 (fun () -> ()));
  Engine.Sim.run sim;
  check Alcotest.int "clock" 100 (Engine.Sim.now sim);
  (try
     ignore (Engine.Sim.schedule sim ~at:50 (fun () -> ()));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule_after: negative delay") (fun () ->
      ignore (Engine.Sim.schedule_after sim ~delay:(-1) (fun () -> ())))

let test_sim_cancel () =
  let sim = Engine.Sim.create () in
  let fired = ref false in
  let h = Engine.Sim.schedule sim ~at:10 (fun () -> fired := true) in
  check Alcotest.bool "pending" true (Engine.Sim.is_pending sim h);
  Engine.Sim.cancel sim h;
  check Alcotest.bool "not pending" false (Engine.Sim.is_pending sim h);
  Engine.Sim.run sim;
  check Alcotest.bool "not fired" false !fired

let test_sim_run_until () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.Sim.schedule sim ~at:(i * 10) (fun () -> incr count))
  done;
  Engine.Sim.run_until sim ~limit:55;
  check Alcotest.int "five fired" 5 !count;
  check Alcotest.int "clock at limit" 55 (Engine.Sim.now sim);
  Engine.Sim.run_until sim ~limit:200;
  check Alcotest.int "rest fired" 10 !count

let test_sim_recursive_scheduling () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 100 then ignore (Engine.Sim.schedule_after sim ~delay:5 tick)
  in
  ignore (Engine.Sim.schedule sim ~at:0 tick);
  Engine.Sim.run sim;
  check Alcotest.int "all ticks" 100 !count;
  check Alcotest.int "events_fired" 100 (Engine.Sim.events_fired sim)

let test_sim_stop () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore
      (Engine.Sim.schedule sim ~at:i (fun () ->
           incr count;
           if !count = 3 then Engine.Sim.stop sim))
  done;
  Engine.Sim.run sim;
  check Alcotest.int "stopped early" 3 !count

(* [run_until] cut short by [stop] must leave the clock at the last
   fired event while events up to the limit remain: advancing it to
   the limit rejected schedules in between and made the next run fire
   the remaining events with the clock going backwards.  Both engines
   must agree. *)
module Stop_regression (S : sig
  type t
  type handle

  val create : unit -> t
  val now : t -> int
  val schedule : t -> at:int -> (unit -> unit) -> handle
  val pending_count : t -> int
  val run_until : t -> limit:int -> unit
  val stop : t -> unit
end) =
struct
  let run () =
    let sim = S.create () in
    let fired = ref [] in
    let backwards = ref false in
    for i = 1 to 10 do
      ignore
        (S.schedule sim ~at:i (fun () ->
             (match !fired with
             | last :: _ when S.now sim < last -> backwards := true
             | _ -> ());
             fired := S.now sim :: !fired;
             if i = 3 then S.stop sim))
    done;
    S.run_until sim ~limit:100;
    check Alcotest.int "stopped at the third event" 3 (S.now sim);
    check Alcotest.int "seven left" 7 (S.pending_count sim);
    ignore (S.schedule sim ~at:50 (fun () -> fired := S.now sim :: !fired));
    S.run_until sim ~limit:100;
    check Alcotest.(list int) "all fire in order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 50 ]
      (List.rev !fired);
    check Alcotest.bool "clock never went backwards" false !backwards;
    check Alcotest.int "clock at limit once drained" 100 (S.now sim);
    (* A stop from the last event at or before the limit still lets
       the clock reach the limit. *)
    ignore (S.schedule sim ~at:150 (fun () -> S.stop sim));
    ignore (S.schedule sim ~at:300 (fun () -> ()));
    S.run_until sim ~limit:200;
    check Alcotest.int "nothing left before the limit" 200 (S.now sim)
end

module Wheel_stop = Stop_regression (Engine.Sim)
module Heap_stop = Stop_regression (Oracles.Ref_heap)

let test_sim_stop_run_until () =
  Wheel_stop.run ();
  Heap_stop.run ()

let test_sim_pending_count () =
  let sim = Engine.Sim.create () in
  let h1 = Engine.Sim.schedule sim ~at:10 (fun () -> ()) in
  ignore (Engine.Sim.schedule sim ~at:20 (fun () -> ()));
  check Alcotest.int "two pending" 2 (Engine.Sim.pending_count sim);
  Engine.Sim.cancel sim h1;
  check Alcotest.int "one pending" 1 (Engine.Sim.pending_count sim)

(* ------------------------------------------------------------------ *)
(* Timing wheel: cancellation-leak fixes and edge cases                 *)

(* The heap leaked the action closure of a cancelled event until its
   slot drained; the wheel must release it at [cancel] time. *)
let test_wheel_cancel_releases_closure () =
  let sim = Engine.Sim.create () in
  let w = Weak.create 1 in
  let h =
    (* Built in a helper so no stack slot keeps [payload] alive. *)
    let make () =
      let payload = Bytes.create 4096 in
      Weak.set w 0 (Some payload);
      Engine.Sim.schedule sim ~at:1_000 (fun () -> ignore (Bytes.length payload))
    in
    make ()
  in
  check Alcotest.bool "held while pending" true (Weak.check w 0);
  Engine.Sim.cancel sim h;
  Gc.full_major ();
  check Alcotest.bool "released on cancel" false (Weak.check w 0)

let test_wheel_tie_across_levels () =
  (* Two events at the same far timestamp, one scheduled at t=0 (it
     starts several wheel levels up) and one scheduled mid-run (it
     starts lower): after cascading into the same level-0 slot they
     must still fire in seq order. *)
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let t = 1_000_000 in
  ignore (Engine.Sim.schedule sim ~at:t (fun () -> log := "early" :: !log));
  ignore
    (Engine.Sim.schedule sim ~at:500 (fun () ->
         ignore (Engine.Sim.schedule sim ~at:t (fun () -> log := "late" :: !log))));
  Engine.Sim.run sim;
  check Alcotest.(list string) "seq order at equal time" [ "early"; "late" ]
    (List.rev !log)

let test_wheel_run_until_cancelled_head () =
  (* A cancelled event heading the queue must not let run_until fire a
     live event beyond its limit (the old heap had this bug). *)
  let sim = Engine.Sim.create () in
  let fired = ref false in
  let h = Engine.Sim.schedule sim ~at:10 (fun () -> ()) in
  Engine.Sim.cancel sim h;
  ignore (Engine.Sim.schedule sim ~at:100 (fun () -> fired := true));
  Engine.Sim.run_until sim ~limit:55;
  check Alcotest.bool "no overshoot past limit" false !fired;
  check Alcotest.int "clock at limit" 55 (Engine.Sim.now sim);
  check Alcotest.int "still pending" 1 (Engine.Sim.pending_count sim);
  Engine.Sim.run sim;
  check Alcotest.bool "fires after" true !fired

let test_wheel_far_future_spill () =
  (* Beyond the wheel horizon (2^50 ns ≈ 13 days) entries live on the
     spill list; ordering and cancellation must still hold. *)
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let far = Engine.Sim_time.hours 400 in
  let h = Engine.Sim.schedule sim ~at:(far + 5) (fun () -> log := 2 :: !log) in
  ignore (Engine.Sim.schedule sim ~at:far (fun () -> log := 1 :: !log));
  ignore (Engine.Sim.schedule sim ~at:(far + 5) (fun () -> log := 3 :: !log));
  ignore (Engine.Sim.schedule sim ~at:7 (fun () -> log := 0 :: !log));
  Engine.Sim.cancel sim h;
  Engine.Sim.run sim;
  check Alcotest.(list int) "order across the spill" [ 0; 1; 3 ] (List.rev !log);
  check Alcotest.int "clock at last event" (far + 5) (Engine.Sim.now sim)

let test_wheel_churn_bounded () =
  (* Cancellation churn must neither distort [pending_count] nor grow
     storage: a cancel frees its entry at once, so the wheel's store
     stays at the high-water mark of one round (2001 live entries)
     however many rounds run. *)
  let sim = Engine.Sim.create () in
  let live_fired = ref 0 in
  for round = 1 to 50 do
    let handles =
      Array.init 2000 (fun i ->
          Engine.Sim.schedule_after sim ~delay:(1000 + i) (fun () -> ()))
    in
    ignore (Engine.Sim.schedule_after sim ~delay:10 (fun () -> incr live_fired));
    Array.iter (fun h -> Engine.Sim.cancel sim h) handles;
    check Alcotest.int "pending counts only live" 1 (Engine.Sim.pending_count sim);
    Engine.Sim.run_until sim ~limit:(Engine.Sim.now sim + 20);
    check Alcotest.int "live event fired" round !live_fired;
    check Alcotest.int "none left pending" 0 (Engine.Sim.pending_count sim)
  done;
  let w = Engine.Wheel.create () in
  let seq = ref 0 in
  for round = 1 to 50 do
    let handles =
      Array.init 2001 (fun i ->
          incr seq;
          Engine.Wheel.add w ~time:((round * 10_000) + i) ~seq:!seq (fun () -> ()))
    in
    Array.iter (Engine.Wheel.cancel w) handles;
    check Alcotest.int "wheel empty" 0 (Engine.Wheel.live_count w);
    check Alcotest.bool "store bounded by the high-water mark" true
      (Engine.Wheel.capacity w <= 4096)
  done

(* Steady-state allocation gates: past the store's high-water mark,
   scheduling, firing and cancelling allocate nothing beyond the
   caller's closure (preallocated here).  64 far-off events keep the
   wheel several levels deep, so firing exercises cascades and the
   single-entry jump. *)
let steady_sim () =
  let sim = Engine.Sim.create () in
  for i = 1 to 64 do
    ignore (Engine.Sim.schedule_after sim ~delay:(Engine.Sim_time.ms (50 + i)) ignore)
  done;
  sim

let test_schedule_fire_zero_alloc () =
  let sim = steady_sim () in
  let round i =
    ignore (Engine.Sim.schedule_after sim ~delay:(i * 7919 mod 50_000_000) ignore);
    ignore (Engine.Sim.step sim)
  in
  for i = 1 to Alloc_gate.rounds do
    round i
  done;
  Alloc_gate.check "schedule + fire" round

let test_schedule_cancel_zero_alloc () =
  let sim = steady_sim () in
  let round i =
    Engine.Sim.cancel sim
      (Engine.Sim.schedule_after sim ~delay:(i * 7919 mod 50_000_000) ignore)
  in
  round 0;
  Alloc_gate.check "schedule + cancel" round

(* The sampler's draws allocate nothing: the generator state is
   unboxed, and [categorical] and [Zipf.sample] build their uniform
   from [Rng.bits53]'s int.  Bounds near [max_int] run [Rng.int]'s
   rejection loop. *)
let test_draws_zero_alloc () =
  let rng = Engine.Rng.create 1 in
  let weights = [| 0.8; 0.2 |] in
  let zipf = Engine.Dist.Zipf.create ~n:64 ~s:0.8 in
  Alloc_gate.check "Rng.int" (fun i -> ignore (Engine.Rng.int rng (max_int - i)));
  Alloc_gate.check "Rng.bits53" (fun _ -> ignore (Engine.Rng.bits53 rng));
  Alloc_gate.check "Dist.categorical" (fun _ ->
      ignore (Engine.Dist.categorical weights rng));
  Alloc_gate.check "Zipf.sample" (fun _ -> ignore (Engine.Dist.Zipf.sample zipf rng))

(* [Dist.sample] allocates its boxed result, 2 words, and nothing more,
   for every family and for a mixture (the Region profiles' shape). *)
let test_sample_one_box () =
  if not (Alloc_gate.calibrated ()) then Alloc_gate.skip_note ()
  else begin
    let rng = Engine.Rng.create 2 in
    let lognormal = Engine.Dist.lognormal_of_quantiles ~p50:0.002 ~p99:0.042 in
    let limit = (2.0 *. float_of_int Alloc_gate.rounds) +. Alloc_gate.slack in
    List.iter
      (fun (family, d) ->
        ignore (Engine.Dist.sample d rng);
        let words =
          Alloc_gate.minor_words_of (fun () ->
              for _ = 1 to Alloc_gate.rounds do
                ignore (Engine.Dist.sample d rng)
              done)
        in
        if not (words < limit) then
          Alcotest.failf "Dist.sample (%s) allocated %.0f minor words over %d calls"
            family words Alloc_gate.rounds)
      [
        ("constant", Engine.Dist.constant 1.0);
        ("uniform", Engine.Dist.uniform ~lo:100.0 ~hi:300.0);
        ("exponential", Engine.Dist.exponential ~mean:0.05);
        ("bounded_pareto", Engine.Dist.bounded_pareto ~shape:0.7 ~lo:1.0 ~hi:5000.0);
        ("lognormal", lognormal);
        ( "mixture",
          Engine.Dist.mixture
            [ (0.97, lognormal); (0.03, Engine.Dist.exponential ~mean:3.0) ] );
      ]
  end

(* ------------------------------------------------------------------ *)
(* Differential: the wheel against the retired binary heap             *)

type dop =
  | DSched of int * int (* at (relative to now), fanout selector *)
  | DCancel of int (* index into the handles issued so far *)
  | DPending of int (* is_pending on a handle issued so far *)
  | DStop of int (* an event at (relative to now) that calls stop *)
  | DUntil of int (* run_until target *)

let dop_print = function
  | DSched (at, f) -> Printf.sprintf "DSched(%d,%d)" at f
  | DCancel i -> Printf.sprintf "DCancel %d" i
  | DPending i -> Printf.sprintf "DPending %d" i
  | DStop at -> Printf.sprintf "DStop %d" at
  | DUntil l -> Printf.sprintf "DUntil %d" l

(* Interpret a program against either engine, producing a full
   observation: every firing (time, id, depth), every run_until
   checkpoint (now, pending_count), every [is_pending] answer, plus
   the final totals.  [DCancel] and [DPending] pick from every handle
   issued so far, most of them long fired or cancelled: the wheel
   recycles storage indices, so a stale handle must neither cancel
   nor report the event that now holds its index. *)
module Replay (S : sig
  type t
  type handle

  val create : unit -> t
  val now : t -> int
  val schedule : t -> at:int -> (unit -> unit) -> handle
  val cancel : t -> handle -> unit
  val is_pending : t -> handle -> bool
  val pending_count : t -> int
  val run_until : t -> limit:int -> unit
  val stop : t -> unit
  val events_fired : t -> int
end) =
struct
  let run prog =
    let sim = S.create () in
    let log = ref [] in
    let handles = ref [] in
    let n_handles = ref 0 in
    let next_id = ref 0 in
    let nth i = List.nth !handles (i mod !n_handles) in
    List.iter
      (fun op ->
        match op with
        | DSched (at, fanout) ->
          let at = S.now sim + at in
          let id = !next_id in
          incr next_id;
          (* Fanout: some actions re-schedule at the *same* tick,
             exercising same-time insertion during extraction. *)
          let rec action depth () =
            log := (S.now sim, id, depth) :: !log;
            if depth > 0 && (id + depth) mod 3 = 0 then
              ignore (S.schedule sim ~at:(S.now sim) (action (depth - 1)))
          in
          let h = S.schedule sim ~at (action (fanout mod 4)) in
          handles := h :: !handles;
          incr n_handles
        | DCancel i -> if !n_handles > 0 then S.cancel sim (nth i)
        | DPending i ->
          if !n_handles > 0 then
            log := (S.now sim, -2, Bool.to_int (S.is_pending sim (nth i))) :: !log
        | DStop at ->
          let h =
            S.schedule sim ~at:(S.now sim + at) (fun () ->
                log := (S.now sim, -3, 0) :: !log;
                S.stop sim)
          in
          handles := h :: !handles;
          incr n_handles
        | DUntil lim ->
          let lim = max lim (S.now sim) in
          S.run_until sim ~limit:lim;
          log := (S.now sim, -1, S.pending_count sim) :: !log)
      prog;
    S.run_until sim ~limit:10_000_000;
    (List.rev !log, S.events_fired sim, S.now sim)
end

module Wheel_replay = Replay (Engine.Sim)
module Heap_replay = Replay (Oracles.Ref_heap)

let prop_wheel_matches_heap =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 60)
        (frequency
           [
             (5, map2 (fun a f -> DSched (a, f)) (int_bound 2000) (int_bound 7));
             (2, map (fun i -> DCancel i) (int_bound 100));
             (2, map (fun i -> DPending i) (int_bound 100));
             (1, map (fun a -> DStop a) (int_bound 2000));
             (2, map (fun l -> DUntil l) (int_bound 3000));
           ]))
  in
  let arb =
    QCheck.make gen ~print:(fun p -> String.concat "; " (List.map dop_print p))
  in
  QCheck.Test.make ~name:"wheel matches heap on random programs" ~count:500 arb
    (fun prog ->
      let wl, wf, wn = Wheel_replay.run prog in
      let hl, hf, hn = Heap_replay.run prog in
      wl = hl && wf = hf && wn = hn)

(* Property: events always fire in non-decreasing time order, whatever
   the scheduling pattern. *)
let prop_sim_monotone =
  QCheck.Test.make ~name:"sim fires in time order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let sim = Engine.Sim.create () in
      let last = ref (-1) in
      let ok = ref true in
      List.iter
        (fun at ->
          ignore
            (Engine.Sim.schedule sim ~at (fun () ->
                 if Engine.Sim.now sim < !last then ok := false;
                 last := Engine.Sim.now sim)))
        times;
      Engine.Sim.run sim;
      !ok)

let () =
  Alcotest.run "engine"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split" `Quick test_rng_split_differs;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "unit_float range" `Quick test_rng_unit_float_range;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        ] );
      ( "dist",
        [
          Alcotest.test_case "constant" `Quick test_dist_constant;
          Alcotest.test_case "exponential mean" `Quick test_dist_exponential_mean;
          Alcotest.test_case "uniform bounds" `Quick test_dist_uniform_bounds;
          Alcotest.test_case "bounded pareto" `Quick test_dist_bounded_pareto;
          Alcotest.test_case "lognormal quantile fit" `Quick test_dist_lognormal_quantiles;
          Alcotest.test_case "lognormal invalid" `Quick test_dist_lognormal_invalid;
          Alcotest.test_case "mixture weights" `Quick test_dist_mixture_weights;
          Alcotest.test_case "mixture invalid" `Quick test_dist_mixture_invalid;
          Alcotest.test_case "zipf sampling" `Quick test_zipf_sampling;
          Alcotest.test_case "categorical" `Quick test_categorical;
        ] );
      ( "sampling",
        [
          QCheck_alcotest.to_alcotest prop_sampling_matches_reference;
          Alcotest.test_case "draws allocate nothing" `Quick test_draws_zero_alloc;
          Alcotest.test_case "sample allocates one box" `Quick test_sample_one_box;
        ] );
      ( "sim_time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "float conversions" `Quick test_time_float_conversions;
          Alcotest.test_case "pretty printing" `Quick test_time_pp;
        ] );
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "tie FIFO" `Quick test_sim_tie_fifo;
          Alcotest.test_case "clock" `Quick test_sim_clock_advances;
          Alcotest.test_case "schedule in past" `Quick test_sim_schedule_in_past;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "run_until" `Quick test_sim_run_until;
          Alcotest.test_case "recursive scheduling" `Quick test_sim_recursive_scheduling;
          Alcotest.test_case "stop" `Quick test_sim_stop;
          Alcotest.test_case "run_until after stop" `Quick test_sim_stop_run_until;
          Alcotest.test_case "pending count" `Quick test_sim_pending_count;
          QCheck_alcotest.to_alcotest prop_sim_monotone;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "cancel releases closure" `Quick
            test_wheel_cancel_releases_closure;
          Alcotest.test_case "tie across levels" `Quick test_wheel_tie_across_levels;
          Alcotest.test_case "run_until cancelled head" `Quick
            test_wheel_run_until_cancelled_head;
          Alcotest.test_case "far-future spill" `Quick test_wheel_far_future_spill;
          Alcotest.test_case "schedule + fire allocates nothing" `Quick
            test_schedule_fire_zero_alloc;
          Alcotest.test_case "schedule + cancel allocates nothing" `Quick
            test_schedule_cancel_zero_alloc;
          Alcotest.test_case "cancellation churn bounded" `Quick
            test_wheel_churn_bounded;
          QCheck_alcotest.to_alcotest prop_wheel_matches_heap;
        ] );
    ]
