let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = ref 0.0 in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      xs;
    sqrt (!acc /. float_of_int n)
  end

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Summary.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: p in 0..100";
  Array.iter
    (fun x -> if Float.is_nan x then invalid_arg "Summary.percentile: NaN input")
    xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  let rank = if rank < 1 then 1 else rank in
  sorted.(rank - 1)

let coefficient_of_variation xs =
  let m = mean xs in
  if m = 0.0 then 0.0 else stddev xs /. m

let jain_fairness xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.fold_left ( +. ) 0.0 xs in
    let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if s2 = 0.0 then 1.0 else s *. s /. (float_of_int n *. s2)
  end
