(* Reading 64-bit dispatch bitmaps in assertions. *)

let is_set bm i = Int64.logand (Int64.shift_right_logical bm i) 1L = 1L

(* Set positions in increasing order. *)
let to_list bm = List.filter (is_set bm) (List.init 64 Fun.id)
