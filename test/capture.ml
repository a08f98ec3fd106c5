(* In-memory trace recording for tests. *)

(* A sink that keeps every record, and a reader of what it kept,
   oldest first. *)
let sink () =
  let rev = ref [] in
  ({ Trace.write = (fun r -> rev := r :: !rev); close = ignore }, fun () -> List.rev !rev)

(* The records [f] emits. *)
let records f =
  let sink, read = sink () in
  Trace.with_sink sink f;
  read ()
