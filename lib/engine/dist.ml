(* First-order distributions, one constructor per family, sampled by one
   [match].  Each arm performs the float operations of the closure
   sampler kept in test/sampling_ref.ml, in the same order, so every
   stream is bit-identical; construction precomputes only pure constants
   ([hi -. lo], [1. /. shape], [lo ** shape]).  Uniforms come from
   [Rng.bits53] as an [int]: closure-mode [ocamlopt] boxes a float
   returned by any call it does not inline, so a float returned from
   [Rng] would be boxed wherever the inliner declined the call. *)
type t =
  | Constant of float
  | Uniform of { lo : float; width : float }
  | Exponential of { mean : float }
  | Bounded_pareto of { la : float; ha : float; inv_shape : float }
  | Lognormal of { mu : float; sigma : float }
  | Mixture of { total : float; weights : float array; parts : t array }

(* Uniform in [0,1), from the 53 high bits of one raw draw. *)
let[@inline] unit rng = float_of_int (Rng.bits53 rng) *. 0x1p-53

(* The first index whose left-to-right running weight sum exceeds a
   uniform draw over [\[0, total)]; the last index takes whatever the
   rounding of [total] leaves over.  Inlined, so [total] stays unboxed. *)
let[@inline] pick_index total weights rng =
  let x = unit rng *. total in
  let last = Array.length weights - 1 in
  let i = ref 0 and acc = ref (0.0 +. weights.(0)) in
  while not (x < !acc || !i = last) do
    incr i;
    acc := !acc +. weights.(!i)
  done;
  !i

let rec sample d rng =
  match d with
  | Constant v -> v
  | Uniform { lo; width } -> lo +. (unit rng *. width)
  | Exponential { mean } ->
    (* Inverse transform; 1 - u avoids log 0. *)
    -.mean *. log (1.0 -. unit rng)
  | Bounded_pareto { la; ha; inv_shape } ->
    (* Inverse transform of the truncated Pareto CDF. *)
    let u = unit rng in
    let x = -.((u *. ha) -. (u *. la) -. ha) /. (ha *. la) in
    (1.0 /. x) ** inv_shape
  | Lognormal { mu; sigma } ->
    (* Box-Muller, u1 drawn before u2; one sample per call is fine at
       simulation scale. *)
    let u1 = 1.0 -. unit rng in
    let u2 = unit rng in
    exp (mu +. (sigma *. (sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))))
  | Mixture { total; weights; parts } -> sample parts.(pick_index total weights rng) rng

let mean_of d rng n =
  if n <= 0 then invalid_arg "Dist.mean_of: n must be positive";
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. sample d rng
  done;
  !acc /. float_of_int n

let constant v = Constant v
let uniform ~lo ~hi = Uniform { lo; width = hi -. lo }
let exponential ~mean = Exponential { mean }

let bounded_pareto ~shape ~lo ~hi =
  Bounded_pareto { la = lo ** shape; ha = hi ** shape; inv_shape = 1.0 /. shape }

(* z-score of the 99th percentile of the standard normal. *)
let z99 = 2.3263478740408408

let lognormal_of_quantiles ~p50 ~p99 =
  if p50 <= 0.0 || p99 <= p50 then
    invalid_arg "Dist.lognormal_of_quantiles: need 0 < p50 < p99";
  let mu = log p50 in
  let sigma = (log p99 -. mu) /. z99 in
  Lognormal { mu; sigma }

let mixture parts =
  if parts = [] then invalid_arg "Dist.mixture: empty";
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 parts in
  if total <= 0.0 then invalid_arg "Dist.mixture: non-positive total weight";
  Mixture
    {
      total;
      weights = Array.of_list (List.map fst parts);
      parts = Array.of_list (List.map snd parts);
    }

module Zipf = struct
  type t = { cumulative : float array }

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
    { cumulative }

  let sample t rng =
    let x = unit rng in
    (* Binary search for the first cumulative weight >= x. *)
    let lo = ref 0 and hi = ref (Array.length t.cumulative - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cumulative.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo

end

let categorical weights rng =
  let total = ref 0.0 in
  for i = 0 to Array.length weights - 1 do
    if weights.(i) < 0.0 then invalid_arg "Dist.categorical: negative weight";
    total := !total +. weights.(i)
  done;
  if !total <= 0.0 then invalid_arg "Dist.categorical: zero total weight";
  pick_index !total weights rng
