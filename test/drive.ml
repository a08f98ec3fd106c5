(* Production entry points in the shapes the tests call them. *)

(* One production scheduler pass on a fresh scratch. *)
let schedule ~config ~wst ~now =
  let s = Hermes.Scheduler.make_scratch () in
  Hermes.Scheduler.run s ~config ~wst ~now;
  Hermes.Scheduler.result s

(* The structural verifier's verdict, with [verify_exn]'s reason. *)
let ast_verify p =
  match Kernel.Ebpf.verify_exn p with
  | v -> Ok v
  | exception Invalid_argument m ->
    let prefix = "Ebpf.verify_exn: " in
    let n = String.length prefix in
    Error (String.sub m n (String.length m - n))
