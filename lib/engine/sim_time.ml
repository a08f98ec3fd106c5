type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000
let hours n = n * 3_600_000_000_000

let of_sec_f s = int_of_float (Float.round (s *. 1e9))
let of_us_f u = int_of_float (Float.round (u *. 1e3))
let to_sec_f t = float_of_int t /. 1e9
let to_ms_f t = float_of_int t /. 1e6
let to_us_f t = float_of_int t /. 1e3

let add = ( + )
let sub = ( - )
let min = Stdlib.min

let pp fmt t =
  let a = abs t in
  if a < 1_000 then Format.fprintf fmt "%dns" t
  else if a < 1_000_000 then Format.fprintf fmt "%.2fus" (to_us_f t)
  else if a < 1_000_000_000 then Format.fprintf fmt "%.2fms" (to_ms_f t)
  else Format.fprintf fmt "%.3fs" (to_sec_f t)

let to_string t = Format.asprintf "%a" pp t
