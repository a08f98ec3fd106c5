(* The closure-based [Engine.Rng] and [Engine.Dist] that the unboxed,
   first-order versions replaced, kept verbatim as the bit-identity
   oracle for test_engine's sampling property.  Only tests link it. *)

module Rng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed = { state = mix64 (Int64.of_int seed) }

  let next_int64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix64 t.state

  let split t = { state = mix64 (next_int64 t) }

  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
    (* Rejection sampling over the low 62 bits keeps the draw unbiased. *)
    let mask = 0x3FFF_FFFF_FFFF_FFFF in
    let rec draw () =
      let r = Int64.to_int (next_int64 t) land mask in
      let v = r mod bound in
      if r - v + (bound - 1) < 0 then draw () else v
    in
    draw ()

  let unit_float t =
    (* 53 high-quality bits -> [0,1). *)
    let bits = Int64.shift_right_logical (next_int64 t) 11 in
    Int64.to_float bits *. (1.0 /. 9007199254740992.0)

  let float t bound = unit_float t *. bound
end

module Dist = struct
  type t = Rng.t -> float

  let sample d rng = d rng

  let constant v _ = v

  let uniform ~lo ~hi rng = lo +. Rng.float rng (hi -. lo)

  let exponential ~mean rng =
    (* Inverse transform; 1 - u avoids log 0. *)
    let u = Rng.unit_float rng in
    -.mean *. log (1.0 -. u)

  let bounded_pareto ~shape ~lo ~hi rng =
    (* Inverse transform of the truncated Pareto CDF. *)
    let u = Rng.unit_float rng in
    let la = lo ** shape and ha = hi ** shape in
    let x = -.((u *. ha) -. (u *. la) -. ha) /. (ha *. la) in
    (1.0 /. x) ** (1.0 /. shape)

  let normal rng =
    (* Box-Muller; one sample per call is fine at simulation scale. *)
    let u1 = 1.0 -. Rng.unit_float rng in
    let u2 = Rng.unit_float rng in
    sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

  let lognormal ~mu ~sigma rng = exp (mu +. (sigma *. normal rng))

  (* z-score of the 99th percentile of the standard normal. *)
  let z99 = 2.3263478740408408

  let lognormal_of_quantiles ~p50 ~p99 =
    if p50 <= 0.0 || p99 <= p50 then
      invalid_arg "Dist.lognormal_of_quantiles: need 0 < p50 < p99";
    let mu = log p50 in
    let sigma = (log p99 -. mu) /. z99 in
    lognormal ~mu ~sigma

  let mixture parts =
    if parts = [] then invalid_arg "Dist.mixture: empty";
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 parts in
    if total <= 0.0 then invalid_arg "Dist.mixture: non-positive total weight";
    let arr = Array.of_list parts in
    fun rng ->
      let x = Rng.float rng total in
      let rec pick i acc =
        let w, d = arr.(i) in
        let acc = acc +. w in
        if x < acc || i = Array.length arr - 1 then d rng else pick (i + 1) acc
      in
      pick 0 0.0

  module Zipf = struct
    type t = { cumulative : float array; weights : float array }

    let create ~n ~s =
      if n <= 0 then invalid_arg "Zipf.create: n must be positive";
      let weights = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
      let total = Array.fold_left ( +. ) 0.0 weights in
      let weights = Array.map (fun w -> w /. total) weights in
      let cumulative = Array.make n 0.0 in
      let acc = ref 0.0 in
      Array.iteri
        (fun i w ->
          acc := !acc +. w;
          cumulative.(i) <- !acc)
        weights;
      { cumulative; weights }

    let sample t rng =
      let x = Rng.unit_float rng in
      (* Binary search for the first cumulative weight >= x. *)
      let lo = ref 0 and hi = ref (Array.length t.cumulative - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if t.cumulative.(mid) < x then lo := mid + 1 else hi := mid
      done;
      !lo

  end

  let categorical weights rng =
    let total = Array.fold_left ( +. ) 0.0 weights in
    Array.iter (fun w -> if w < 0.0 then invalid_arg "Dist.categorical: negative weight") weights;
    if total <= 0.0 then invalid_arg "Dist.categorical: zero total weight";
    let x = Rng.float rng total in
    let n = Array.length weights in
    let rec pick i acc =
      if i = n - 1 then i
      else
        let acc = acc +. weights.(i) in
        if x < acc then i else pick (i + 1) acc
    in
    pick 0 0.0
end
