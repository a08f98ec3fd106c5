(* SplitMix64 with its 64-bit state held unboxed in an 8-byte [Bytes.t],
   read and written by the raw 64-bit primitives below, so a draw
   allocates nothing.  A [mutable state : int64] field would box every
   new state and write it through the barrier into a generator that
   usually lives in the major heap. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

(* Advance the state and mix it: the next raw output.  Inlined, so the
   int64 stays unboxed in every caller below. *)
let[@inline] next t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let split t = of_state (mix64 (next t))
let bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

(* Rejection sampling over the low 62 bits keeps the draw unbiased. *)
let rec draw t bound =
  let r = Int64.to_int (next t) land 0x3FFF_FFFF_FFFF_FFFF in
  let v = r mod bound in
  if r - v + (bound - 1) < 0 then draw t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw t bound

(* 53 high-quality bits -> [0,1). *)
let float t bound = float_of_int (bits53 t) *. 0x1p-53 *. bound
