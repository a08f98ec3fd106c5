type t = {
  buckets : int array;
  bucket_scale : float; (* buckets per factor of e *)
  linear_limit : float; (* values below this go to linear buckets *)
  linear_buckets : int;
  max_recordable : float;
  mutable n : int;
  (* Sum, running mean, centred second moment, minimum and maximum, in
     one flat float array so [record] updates them unboxed: as mutable
     float fields of this mixed record each update would box a fresh
     float and pay a write barrier.  The mean and second moment are
     Welford's: the naive sum-of-squares formula cancels
     catastrophically once samples reach ~1e8 (ns timestamps),
     reporting 0 or NaN stddev for tight distributions around a large
     mean. *)
  acc : float array;
}

let sum_ = 0
let mean_ = 1
let m2_ = 2
let min_ = 3
let max_ = 4
let fresh_acc () = [| 0.0; 0.0; 0.0; infinity; neg_infinity |]

(* Layout: [linear_buckets] unit-width buckets for [0, linear_limit),
   then log buckets above.  Index of value v >= linear_limit is
   linear_buckets + floor(bucket_scale * ln (v / linear_limit)). *)

let create ?(significant_digits = 2) ?(max_value = 1e12) () =
  if significant_digits < 1 || significant_digits > 4 then
    invalid_arg "Histogram.create: significant_digits in 1..4";
  if max_value <= 1.0 then invalid_arg "Histogram.create: max_value too small";
  let rel_err = 10.0 ** float_of_int (-significant_digits) in
  (* Choose bucket width so (edge ratio - 1) <= 2*rel_err. *)
  let bucket_scale = 1.0 /. log (1.0 +. (2.0 *. rel_err)) in
  let linear_limit = 1.0 /. rel_err in
  let linear_buckets = int_of_float linear_limit in
  let log_buckets =
    int_of_float (ceil (bucket_scale *. log (max_value /. linear_limit))) + 2
  in
  {
    buckets = Array.make (linear_buckets + log_buckets) 0;
    bucket_scale;
    linear_limit;
    linear_buckets;
    max_recordable = max_value;
    n = 0;
    acc = fresh_acc ();
  }

let value_of t i =
  (* Representative value of bucket i: exact for unit-width linear
     buckets, geometric midpoint for log buckets (halves the relative
     quantile error vs reporting an edge). *)
  if i < t.linear_buckets then float_of_int (i + 1)
  else
    t.linear_limit
    *. exp ((float_of_int (i - t.linear_buckets) +. 0.5) /. t.bucket_scale)

let record_n t v n =
  if v < 0.0 then invalid_arg "Histogram.record: negative value";
  if n < 0 then invalid_arg "Histogram.record_n: negative count";
  if n > 0 then begin
    let v' = if v > t.max_recordable then t.max_recordable else v in
    (* The bucket index, computed in place: passing [v'] to a helper
       would box it. *)
    let i =
      if v' < t.linear_limit then int_of_float v'
      else
        let i =
          t.linear_buckets
          + int_of_float (t.bucket_scale *. log (v' /. t.linear_limit))
        in
        let top = Array.length t.buckets - 1 in
        if i < top then i else top
    in
    t.buckets.(i) <- t.buckets.(i) + n;
    t.n <- t.n + n;
    let fn = float_of_int n in
    let a = t.acc in
    a.(sum_) <- a.(sum_) +. (v *. fn);
    let delta = v -. a.(mean_) in
    a.(mean_) <- a.(mean_) +. (delta *. fn /. float_of_int t.n);
    a.(m2_) <- a.(m2_) +. (delta *. (v -. a.(mean_)) *. fn);
    if v < a.(min_) then a.(min_) <- v;
    if v > a.(max_) then a.(max_) <- v
  end

let record t v = record_n t v 1
let count t = t.n
let total t = t.acc.(sum_)
let mean t = if t.n = 0 then 0.0 else t.acc.(sum_) /. float_of_int t.n
let min_value t = if t.n = 0 then 0.0 else t.acc.(min_)
let max_value t = if t.n = 0 then 0.0 else t.acc.(max_)

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: p in 0..100";
  if t.n = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
      if r < 1 then 1 else r
    in
    let acc = ref 0 in
    let result = ref t.acc.(max_) in
    (try
       for i = 0 to Array.length t.buckets - 1 do
         acc := !acc + t.buckets.(i);
         if !acc >= rank then begin
           result := value_of t i;
           raise Exit
         end
       done
     with Exit -> ());
    (* Never report beyond the observed maximum. *)
    if !result > t.acc.(max_) then t.acc.(max_) else !result
  end

let stddev t =
  if t.n < 2 then 0.0
  else
    let var = t.acc.(m2_) /. float_of_int t.n in
    if var <= 0.0 then 0.0 else sqrt var

let merge_into ~src ~dst =
  (* Equal bucket-array lengths are not equal layouts: different
     (significant_digits, max_value) pairs can coincide in length while
     disagreeing on every bucket boundary, silently merging into
     garbage.  Compare the derived layout parameters themselves. *)
  if
    Array.length src.buckets <> Array.length dst.buckets
    || src.bucket_scale <> dst.bucket_scale
    || src.linear_limit <> dst.linear_limit
    || src.max_recordable <> dst.max_recordable
  then invalid_arg "Histogram.merge_into: layout mismatch";
  Array.iteri (fun i c -> dst.buckets.(i) <- dst.buckets.(i) + c) src.buckets;
  (* Chan et al. parallel combine for the centred moments. *)
  let s = src.acc and d = dst.acc in
  if src.n > 0 then begin
    let na = float_of_int dst.n and nb = float_of_int src.n in
    let total = na +. nb in
    let delta = s.(mean_) -. d.(mean_) in
    d.(m2_) <- d.(m2_) +. s.(m2_) +. (delta *. delta *. na *. nb /. total);
    d.(mean_) <- d.(mean_) +. (delta *. nb /. total)
  end;
  dst.n <- dst.n + src.n;
  d.(sum_) <- d.(sum_) +. s.(sum_);
  if s.(min_) < d.(min_) then d.(min_) <- s.(min_);
  if s.(max_) > d.(max_) then d.(max_) <- s.(max_)

let reset t =
  Array.fill t.buckets 0 (Array.length t.buckets) 0;
  t.n <- 0;
  Array.blit (fresh_acc ()) 0 t.acc 0 (Array.length t.acc)

let cdf_points t =
  if t.n = 0 then []
  else begin
    let points = ref [] in
    let acc = ref 0 in
    for i = 0 to Array.length t.buckets - 1 do
      if t.buckets.(i) > 0 then begin
        acc := !acc + t.buckets.(i);
        points := (value_of t i, float_of_int !acc /. float_of_int t.n) :: !points
      end
    done;
    List.rev !points
  end
