(* Dispatch fast-path benchmark: the per-packet / per-event-loop costs
   that run with zero allocation, each measured against the retired
   implementation it replaced and gated on the speedup ratio (stable
   across machines, unlike raw nanoseconds — same scheme as
   Sched_bench):

   - [select_8]/[select_64]: reuseport hash fallback — rank-select over
     the incremental live bitmap vs the retired per-packet list build +
     [List.nth] walk;
   - [sched_8]/[sched_64]: one full Algo 1 cascade — the bitmap-native
     engine on a reusable scratch vs the retired bool-array cascade
     with its snapshot allocation ([Oracles.Scheduler_ref]);
   - [ebpf_jit_vm]/[ebpf_jit_ast]: the Algo 2 dispatch program under
     the closure JIT vs the checked bytecode interpreter
     ([Oracles.Ebpf_vm_ref], the JIT's oracle) / the compiled
     expression program (the default dispatch engine);
   - [ebpf_ast]: the compiled expression program vs the tree-walker it
     replaced ([Oracles.Ebpf_ref], its oracle).

   Every scenario also reports minor-heap words per operation on the
   fast path; the gate requires exactly zero (the probes themselves box
   a few words — anything a single op allocates shows up as >= ops
   words and fails). *)

(* ------------------------------------------------------------------ *)
(* Reuseport fallback select                                            *)

let select_scenario ~workers ~ops =
  let g = Kernel.Reuseport.create ~port:80 ~slots:workers in
  for slot = 0 to workers - 1 do
    (* 3/4 of the slots bound: rank-select has real gaps to skip *)
    if slot mod 4 <> 3 then
      Kernel.Reuseport.bind g ~slot
        ~socket:(Kernel.Socket.create_listen ~port:80 ~backlog:4 ())
  done;
  let members =
    Array.init workers (fun slot -> Kernel.Reuseport.member g ~slot)
  in
  let fast () =
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      match Kernel.Reuseport.select g ~flow_hash:(Harness.mix i) with
      | Some s -> sum := !sum + Kernel.Socket.id s
      | None -> ()
    done;
    !sum
  in
  (* the retired implementation: materialise the live-member list per
     packet, then walk it with List.nth *)
  let base () =
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      let live =
        Array.to_list members
        |> List.mapi (fun slot s -> (slot, s))
        |> List.filter_map (fun (slot, s) ->
               match s with Some s -> Some (slot, s) | None -> None)
      in
      match live with
      | [] -> ()
      | live ->
        let n = List.length live in
        let _, s =
          List.nth live (Kernel.Bitops.reciprocal_scale ~hash:(Harness.mix i) ~n)
        in
        sum := !sum + Kernel.Socket.id s
    done;
    !sum
  in
  let words () =
    for i = 0 to ops - 1 do
      ignore (Kernel.Reuseport.select g ~flow_hash:(Harness.mix i))
    done
  in
  (fast, base, words)

(* ------------------------------------------------------------------ *)
(* Scheduler cascade                                                    *)

let sched_wst ~workers =
  let wst = Hermes.Wst.create ~workers in
  for w = 0 to workers - 1 do
    (* every 7th worker stale; the rest fresh with mixed counters *)
    Hermes.Wst.set_avail wst w
      ~now:(if w mod 7 = 6 then 0 else Engine.Sim_time.ms (990 + (w mod 9)));
    Hermes.Wst.add_busy wst w (w mod 13);
    Hermes.Wst.add_conn wst w (w * 5 mod 23)
  done;
  wst

let sched_scenario ~workers ~ops =
  let config = Hermes.Config.default in
  let now = Engine.Sim_time.ms 1000 in
  let fast () =
    let wst = sched_wst ~workers in
    let s = Hermes.Scheduler.make_scratch () in
    let sum = ref 0 in
    for i = 1 to ops do
      Hermes.Scheduler.run s ~config ~wst ~now;
      sum :=
        !sum + Hermes.Scheduler.passed s + (17 * Hermes.Scheduler.after_time s);
      (* drift the table so successive passes see evolving state *)
      Hermes.Wst.add_conn wst (i mod workers) 1
    done;
    !sum
  in
  let base () =
    let wst = sched_wst ~workers in
    let sum = ref 0 in
    for i = 1 to ops do
      let r = Oracles.Scheduler_ref.schedule ~config ~wst ~now in
      sum := !sum + r.Hermes.Scheduler.passed + (17 * r.after_time);
      Hermes.Wst.add_conn wst (i mod workers) 1
    done;
    !sum
  in
  let words =
    (* static table: the pure pass, nothing else in the loop *)
    let wst = sched_wst ~workers in
    let s = Hermes.Scheduler.make_scratch () in
    fun () ->
      for _ = 1 to ops do
        Hermes.Scheduler.run s ~config ~wst ~now
      done
  in
  (fast, base, words)

(* ------------------------------------------------------------------ *)
(* eBPF backends on the Algo 2 dispatch program                         *)

let outcome_code = function
  | Kernel.Ebpf.Selected s -> 1 + (31 * Kernel.Socket.id s)
  | Kernel.Ebpf.Fell_back -> 0
  | Kernel.Ebpf.Dropped -> 2
  | Kernel.Ebpf.Redirected { conn; target; copy } ->
    3 + (31 * conn) + (127 * target) + copy

let ebpf_setup () =
  let bitmap = Kernel.Bitops.bits_of_list [ 1; 3; 8; 13; 21; 34; 55; 62 ] in
  let m_sel = Kernel.Ebpf_maps.Array_map.create ~name:"DB_M_Sel" ~size:1 in
  Kernel.Ebpf_maps.Array_map.kernel_update m_sel 0 bitmap;
  let m_socket = Kernel.Ebpf_maps.Sockarray.create ~name:"DB_M_sock" ~size:64 in
  for i = 0 to 63 do
    Kernel.Ebpf_maps.Sockarray.set m_socket i
      (Kernel.Socket.create_listen ~port:80 ~backlog:4 ())
  done;
  let prog = Hermes.Dispatch.single_group ~m_sel ~m_socket ~min_selected:2 in
  let vm =
    match Kernel.Verifier.compile_and_verify prog with
    | Ok v -> v
    | Error e -> failwith (Kernel.Verifier.error_to_string e)
  in
  (prog, Kernel.Ebpf.verify_exn prog, vm, Kernel.Ebpf_jit.compile vm)

let ebpf_scenarios ~ops =
  let prog, ast, vm, jit = ebpf_setup () in
  let code = Kernel.Ebpf_vm.program_of vm in
  let jit_thunk () =
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      let code = Kernel.Ebpf_code.exec jit ~flow_hash:(Harness.mix i) ~dst_port:80 in
      let sel =
        match Kernel.Ebpf_code.selected jit with
        | Some s when code = 1 -> 31 * Kernel.Socket.id s
        | _ -> 0
      in
      sum := !sum + code + sel
    done;
    !sum
  in
  let vm_thunk () =
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      let out, _ =
        Oracles.Ebpf_vm_ref.run_checked code
          { Kernel.Ebpf.flow_hash = Harness.mix i; dst_port = 80 }
      in
      sum := !sum + outcome_code out
    done;
    !sum
  in
  let ast_thunk () =
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      let code = Kernel.Ebpf_code.exec ast ~flow_hash:(Harness.mix i) ~dst_port:80 in
      let sel =
        match Kernel.Ebpf_code.selected ast with
        | Some s when code = 1 -> 31 * Kernel.Socket.id s
        | _ -> 0
      in
      sum := !sum + code + sel
    done;
    !sum
  in
  let walker_thunk () =
    let sum = ref 0 in
    for i = 0 to ops - 1 do
      let out, _ =
        Oracles.Ebpf_ref.run prog { Kernel.Ebpf.flow_hash = Harness.mix i; dst_port = 80 }
      in
      sum := !sum + outcome_code out
    done;
    !sum
  in
  let jit_words () =
    for i = 0 to ops - 1 do
      ignore (Kernel.Ebpf_code.exec jit ~flow_hash:(Harness.mix i) ~dst_port:80)
    done
  in
  let ast_words () =
    for i = 0 to ops - 1 do
      ignore (Kernel.Ebpf_code.exec ast ~flow_hash:(Harness.mix i) ~dst_port:80)
    done
  in
  (jit_thunk, vm_thunk, ast_thunk, walker_thunk, jit_words, ast_words)

(* ------------------------------------------------------------------ *)

let run ~quick =
  let size = Harness.Row.size ~quick in
  let reps = if quick then 5 else 3 in
  let select_ops = if quick then 200_000 else 2_000_000 in
  let sched_ops_8 = if quick then 50_000 else 500_000 in
  let sched_ops_64 = if quick then 15_000 else 150_000 in
  let ebpf_ops = if quick then 50_000 else 500_000 in
  let pair = Harness.paired ~family:"dispatch" ~size ~reps in
  let select n ops =
    let fast, base, words = select_scenario ~workers:n ~ops in
    pair ~name:(Printf.sprintf "select_%d" n) ~ops ~words fast base
  in
  let sched n ops =
    let fast, base, words = sched_scenario ~workers:n ~ops in
    pair ~name:(Printf.sprintf "sched_%d" n) ~ops ~words fast base
  in
  let jit_thunk, vm_thunk, ast_thunk, walker_thunk, jwords, awords =
    ebpf_scenarios ~ops:ebpf_ops
  in
  [
    select 8 select_ops;
    select 64 select_ops;
    sched 8 sched_ops_8;
    sched 64 sched_ops_64;
    pair ~name:"ebpf_jit_vm" ~ops:ebpf_ops ~words:jwords jit_thunk vm_thunk;
    pair ~name:"ebpf_jit_ast" ~ops:ebpf_ops ~words:jwords jit_thunk ast_thunk;
    pair ~name:"ebpf_ast" ~ops:ebpf_ops ~words:awords ast_thunk walker_thunk;
  ]

(* The gate:
   - each scenario keeps >= 90% of the committed same-size baseline's
     speedup ratio, except two rows.  [ebpf_jit_ast] times the JIT
     against the compiled AST program (about 0.11x), the gap ROADMAP
     item 5 step 2 is to close: it is recorded, not gated.
     [ebpf_ast] is gated by its floor alone: on a shared 2-vCPU host
     its ratio swings 3.4-4.6x run to run, wider than a 0.9 bound;
   - the headline floors hold outright: JIT >= 1.3x over the checked
     bytecode interpreter, the compiled AST program >= 2.5x over the
     tree-walker, bitmap scheduler >= 1.5x over the bool-array oracle;
   - the fast paths allocate exactly zero minor words per op (when the
     runtime supports the measurement). *)
let gates (r : Harness.Row.t) =
  let open Harness.Gate in
  (match r.name with
  | "ebpf_jit_ast" | "ebpf_ast" -> []
  | _ -> [ v "speedup" (Rel_floor 0.9) ])
  @ (match r.name with
    | "ebpf_jit_vm" -> [ v "speedup" (Floor 1.3) ]
    | "ebpf_ast" -> [ v "speedup" (Floor 2.5) ]
    | "sched_8" | "sched_64" -> [ v "speedup" (Floor 1.5) ]
    | _ -> [])
  @ [ v "fast_words" Zero ]

let family = Harness.Family.v "dispatch" run ~gates
