(* SWAR Hamming weight: sum bits in parallel at widths 2, 4, then use a
   multiply to fold byte counts into the top byte. *)
let popcount64 v =
  let open Int64 in
  let v = sub v (logand (shift_right_logical v 1) 0x5555555555555555L) in
  let v =
    add (logand v 0x3333333333333333L)
      (logand (shift_right_logical v 2) 0x3333333333333333L)
  in
  let v = logand (add v (shift_right_logical v 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul v 0x0101010101010101L) 56)

(* 32-bit SWAR popcount on native ints: the 64-bit masks above do not
   fit OCaml's 63-bit [int], but the scheduler's bitmap halves (and any
   value below 2^32) do.  Callers keep wider bitmaps as two halves. *)
let popcount32 v =
  let v = v - ((v lsr 1) land 0x55555555) in
  let v = (v land 0x33333333) + ((v lsr 2) land 0x33333333) in
  let v = (v + (v lsr 4)) land 0x0F0F0F0F in
  (* unlike C's uint32, the 63-bit product keeps bits above 31 — mask
     the byte the fold accumulated into *)
  ((v * 0x01010101) lsr 24) land 0xFF

let prefix_mask p =
  if p >= 63 then -1L else Int64.sub (Int64.shift_left 1L (p + 1)) 1L

let find_nth_set bm n =
  if n < 1 || popcount64 bm < n then -1
  else begin
    (* Six-step binary search over prefix popcounts: the loop-free
       rank-select of the bithacks page, written as bounded recursion. *)
    let rec go lo hi =
      if lo = hi then lo
      else
        let mid = (lo + hi) / 2 in
        if popcount64 (Int64.logand bm (prefix_mask mid)) >= n then go lo mid
        else go (mid + 1) hi
    in
    go 0 63
  end

let reciprocal_scale ~hash ~n =
  if n <= 0 then invalid_arg "Bitops.reciprocal_scale: n must be positive";
  let h = hash land 0xFFFFFFFF in
  (h * n) lsr 32

let set_bit bm i = Int64.logor bm (Int64.shift_left 1L i)
let clear_bit bm i = Int64.logand bm (Int64.lognot (Int64.shift_left 1L i))

let bits_of_list positions =
  List.fold_left
    (fun acc p ->
      if p < 0 || p > 63 then invalid_arg "Bitops.bits_of_list: position out of range";
      set_bit acc p)
    0L positions
