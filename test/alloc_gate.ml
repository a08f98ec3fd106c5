(* Calibrated zero-allocation gates, shared by the test suites.

   A gate runs an operation [rounds] times at steady state and fails if
   the minor heap grew by [slack] words or more: anything the operation
   allocates per call shows up as >= [rounds] words, while the
   Gc.minor_words probes themselves box a float or two.  Gates are
   skipped, with a note, on non-native backends or when a known
   allocation-free loop reports allocation, as instrumented runtimes
   make minor_words lie. *)

let rounds = 1_000
let slack = 256.0

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let calibrated () =
  match Sys.backend_type with
  | Sys.Native ->
    (* known-zero-alloc loop; instrumented runtimes report otherwise *)
    let arr = Array.make 64 1 in
    let sink = ref 0 in
    let d =
      minor_words_of (fun () ->
          for _ = 1 to rounds do
            for i = 0 to 63 do
              sink := !sink + Array.unsafe_get arr i
            done
          done)
    in
    ignore !sink;
    d < slack
  | _ -> false

let skip_note () =
  print_endline "  [skipped: non-native backend or instrumented runtime]"

(* Fail unless [f 1] .. [f rounds] together allocate nothing.  Warm the
   operation up before calling this: growth to the working size is not
   steady state. *)
let check what f =
  if not (calibrated ()) then skip_note ()
  else begin
    let d =
      minor_words_of (fun () ->
          for i = 1 to rounds do
            f i
          done)
    in
    if not (d < slack) then
      Alcotest.failf "%s allocated %.0f minor words over %d runs" what d rounds
  end
