type t = {
  buckets : int array;
  bucket_scale : float; (* buckets per factor of e *)
  linear_limit : float; (* values below this go to linear buckets *)
  linear_buckets : int;
  max_recordable : float;
  mutable n : int;
  (* Sum and maximum, in one flat float array so [record] updates them
     unboxed: as mutable float fields of this mixed record each update
     would box a fresh float and pay a write barrier. *)
  acc : float array;
}

let sum_ = 0
let max_ = 1
let fresh_acc () = [| 0.0; neg_infinity |]

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

let record t v =
  if v < 0.0 then invalid_arg "Histogram.record: negative value";
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
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.n <- t.n + 1;
  let a = t.acc in
  a.(sum_) <- a.(sum_) +. v;
  if v > a.(max_) then a.(max_) <- v

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.acc.(sum_) /. float_of_int t.n

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

let reset t =
  Array.fill t.buckets 0 (Array.length t.buckets) 0;
  t.n <- 0;
  Array.blit (fresh_acc ()) 0 t.acc 0 (Array.length t.acc)
